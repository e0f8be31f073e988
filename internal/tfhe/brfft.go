package tfhe

// Pair-bundled FFT blind rotation — the trimmed accumulator engine, the one
// blind rotation every Bootstrapper shape runs. Per PAIR of key bits the accumulator is
// decomposed once ((k+1)·TrimL forward FFTs), three pointwise terms are
// accumulated against the (K₁,K₂,K₁₂) pair keys with the monomial factors
// applied in the FFT domain, and one inverse FFT per component folds the
// update back onto the coefficient-domain accumulator. An exact-NTT eager
// blind rotation survives as a test oracle (eager_test.go); fuzzers pin the
// two together at phase level (bootstrap_fuzz_test.go).
//
// The batch kernel iterates pairs in the outer loop and in-flight jobs in
// the inner loop, so each pair's ~200KB of key rows is loaded once per
// batch instead of once per job — the bootstrapping key is ~60MB and its
// streaming dominates single-job latency, which is exactly the accelerator
// paper's argument for batching PBS against a resident key working set.

// fftScratch bundles the spectrum and digit scratch one blind-rotate worker
// reuses across pairs and jobs. All buffers come from the multiplier's
// arenas; the bundle itself is pooled by the scheme, so steady state
// borrows nothing new.
type fftScratch struct {
	d      [][]complex128 // (k+1)·l digit spectra of the accumulator
	rot1   []complex128   // X^{ã₁}−1 factor spectrum
	rot2   []complex128   // X^{ã₂}−1
	rot3   []complex128   // (X^{ã₁}−1)(X^{ã₂}−1)
	term   []complex128   // Σ_j D_j⊙K_t[j][c] before the rotation factor
	spec   []complex128   // per-component output spectrum
	digits []IntPoly      // l coefficient-domain digit polys

	// Single-job header arrays so Bootstrapper.Run can feed the batch
	// kernel without a per-call slice-header allocation.
	jobAbar [1][]int32
	jobTv   [1]TorusPoly
	jobAcc  [1]*TrlweSample
}

// borrowFFTScratch returns a scratch bundle shaped for this scheme's
// trimmed gadget. Release with releaseFFTScratch.
func (s *Scheme) borrowFFTScratch() *fftScratch {
	if v := s.fftScr.Get(); v != nil {
		return v.(*fftScratch)
	}
	pm := s.PM
	l, _ := s.Params.TrimGadget()
	rows := (s.Params.K + 1) * l
	scr := &fftScratch{}
	for i := 0; i < rows; i++ {
		scr.d = append(scr.d, pm.borrowCplx()) //alchemist:owns held by the scratch bundle; releaseFFTScratch parks the bundle with its buffers attached
	}
	scr.rot1 = pm.borrowCplx() //alchemist:owns held by the scratch bundle until releaseFFTScratch
	scr.rot2 = pm.borrowCplx() //alchemist:owns held by the scratch bundle until releaseFFTScratch
	scr.rot3 = pm.borrowCplx() //alchemist:owns held by the scratch bundle until releaseFFTScratch
	scr.term = pm.borrowCplx() //alchemist:owns held by the scratch bundle until releaseFFTScratch
	scr.spec = pm.borrowCplx() //alchemist:owns held by the scratch bundle until releaseFFTScratch
	for j := 0; j < l; j++ {
		scr.digits = append(scr.digits, pm.borrowInt()) //alchemist:owns held by the scratch bundle; releaseFFTScratch parks the bundle with its buffers attached
	}
	return scr
}

// releaseFFTScratch parks a scratch bundle (buffers stay attached) for the
// next borrow.
func (s *Scheme) releaseFFTScratch(scr *fftScratch) { s.fftScr.Put(scr) }

// rotDiffInto writes the spectrum of X^e − 1 into out.
//
//alchemist:hot
func (f *fftTables) rotDiffInto(e int, out []complex128) {
	mask := int32(2*f.n - 1)
	ee := int32(e) & mask
	r2n, rot := f.r2n, f.rotExp
	for s := range out {
		out[s] = r2n[(ee*rot[s])&mask] - 1
	}
}

// decomposeFFT decomposes every component of acc under the trimmed gadget
// and transforms the digits into scr.d.
//
//alchemist:hot
func (s *Scheme) decomposeFFT(acc *TrlweSample, scr *fftScratch) {
	l := len(scr.digits)
	fft := s.PM.fft
	for c := 0; c <= s.Params.K; c++ {
		comp := acc.B
		if c < s.Params.K {
			comp = acc.A[c]
		}
		s.decTrim.decompose(comp, scr.digits)
		for j := 0; j < l; j++ {
			fft.fwdInt(scr.digits[j], scr.d[c*l+j])
		}
	}
}

// accumulateTerm adds rot ⊙ (Σ_j D_j ⊙ g.rows[j][c]) into scr.spec
// (overwriting when first is true).
//
//alchemist:hot
func accumulateTerm(g *TrgswFFT, c int, rot []complex128, scr *fftScratch, first bool) {
	cmulTo(scr.term, scr.d[0], g.rows[0][c])
	for j := 1; j < len(scr.d); j++ {
		cmulAdd(scr.term, scr.d[j], g.rows[j][c])
	}
	if first {
		cmulTo(scr.spec, scr.term, rot)
	} else {
		cmulAdd(scr.spec, scr.term, rot)
	}
}

// fftPairStep applies one bundled pair update: acc += Σ_t K_t ⊡ (P_t·acc)
// with P₁ = X^{e1}−1, P₂ = X^{e2}−1, P₁₂ = P₁P₂. Both exponents non-zero.
//
//alchemist:hot
func (s *Scheme) fftPairStep(pk pairKeys, e1, e2 int, acc *TrlweSample, scr *fftScratch) {
	fft := s.PM.fft
	s.decomposeFFT(acc, scr)
	fft.rotDiffInto(e1, scr.rot1)
	fft.rotDiffInto(e2, scr.rot2)
	cmulTo(scr.rot3, scr.rot1, scr.rot2)
	for c := 0; c <= s.Params.K; c++ {
		accumulateTerm(pk.k1, c, scr.rot1, scr, true)
		accumulateTerm(pk.k2, c, scr.rot2, scr, false)
		accumulateTerm(pk.k12, c, scr.rot3, scr, false)
		if c < s.Params.K {
			fft.invTorusAddInto(scr.spec, acc.A[c])
		} else {
			fft.invTorusAddInto(scr.spec, acc.B)
		}
	}
}

// fftSingleStep applies a single-bit update acc += K ⊡ ((X^e −1)·acc) — the
// degenerate pair (one exponent zero) and the odd tail bit.
//
//alchemist:hot
func (s *Scheme) fftSingleStep(g *TrgswFFT, e int, acc *TrlweSample, scr *fftScratch) {
	fft := s.PM.fft
	s.decomposeFFT(acc, scr)
	fft.rotDiffInto(e, scr.rot1)
	for c := 0; c <= s.Params.K; c++ {
		accumulateTerm(g, c, scr.rot1, scr, true)
		if c < s.Params.K {
			fft.invTorusAddInto(scr.spec, acc.A[c])
		} else {
			fft.invTorusAddInto(scr.spec, acc.B)
		}
	}
}

// initAccInto seeds a blind-rotation accumulator: acc = X^{-b̃}·(0, tv).
//
//alchemist:hot
func initAccInto(abar []int32, nLwe int, tv TorusPoly, acc *TrlweSample) {
	n := len(tv)
	for c := range acc.A {
		a := acc.A[c]
		for i := range a {
			a[i] = 0
		}
	}
	tv.MonomialMulTo(2*n-int(abar[nLwe]), acc.B)
}

// blindRotateFFTBatch runs the pair-bundled blind rotation for a batch of
// jobs sharing one scratch bundle: the pair loop is outermost so every
// job's update against pair t reuses the freshly loaded key rows. Each
// accs[i] is fully overwritten with X^{-phase_i}·tv_i. Job i's arithmetic
// is independent of the batch it rides in, so a batch result is
// bit-identical to the single-job result.
//
//alchemist:hot
func (s *Scheme) blindRotateFFTBatch(abars [][]int32, tvs []TorusPoly, accs []*TrlweSample, scr *fftScratch) {
	p := s.Params
	bk := s.pairBootKey()
	for i := range accs {
		initAccInto(abars[i], p.NLwe, tvs[i], accs[i])
	}
	for t := range bk.pairs {
		pk := bk.pairs[t]
		for i := range accs {
			abar := abars[i]
			e1, e2 := int(abar[2*t]), int(abar[2*t+1])
			switch {
			case e1 == 0 && e2 == 0:
			case e2 == 0:
				s.fftSingleStep(pk.k1, e1, accs[i], scr)
			case e1 == 0:
				s.fftSingleStep(pk.k2, e2, accs[i], scr)
			default:
				s.fftPairStep(pk, e1, e2, accs[i], scr)
			}
		}
	}
	if bk.last != nil {
		for i := range accs {
			if e := int(abars[i][p.NLwe-1]); e != 0 {
				s.fftSingleStep(bk.last, e, accs[i], scr)
			}
		}
	}
}

// blindRotateFFTOne feeds one job through the batch kernel via the scratch
// bundle's embedded slice headers, so the single-op path (Bootstrapper.Run)
// stays allocation-free.
//
//alchemist:hot
func (s *Scheme) blindRotateFFTOne(abar IntPoly, tv TorusPoly, acc *TrlweSample, scr *fftScratch) {
	scr.jobAbar[0], scr.jobTv[0], scr.jobAcc[0] = abar, tv, acc
	s.blindRotateFFTBatch(scr.jobAbar[:], scr.jobTv[:], scr.jobAcc[:], scr)
	scr.jobAbar[0], scr.jobTv[0], scr.jobAcc[0] = nil, nil, nil
}

// modSwitchInto discretizes an LWE sample's mask and body to Z_{2N}:
// abar[i] = ⌊2N·a_i⌉ for i < NLwe, abar[NLwe] = ⌊2N·b⌉.
//
//alchemist:hot
func modSwitchInto(ct *LweSample, twoN int, abar []int32) {
	for i, a := range ct.A {
		abar[i] = int32(modSwitch(a, twoN))
	}
	abar[len(ct.A)] = int32(modSwitch(ct.B, twoN))
}
