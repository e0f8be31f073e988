package tfhe

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"alchemist/internal/prng"
)

// Exact-NTT reference bootstrap. The shipped blind rotation is the trimmed,
// pair-bundled FFT engine (brfft.go); this file keeps the textbook datapath
// it replaced — one TRGSW per level-0 key bit, NLwe CMuxes each an exact
// 61-bit-prime NTT external product under the full (L, BgBits) gadget, and a
// key switch with all KsT digits — as the oracle FuzzTrimmedVsEagerPhase
// compares the FFT engine against at phase level.

// newDecomposer builds the full-gadget decomposer of the reference path.
func newDecomposer(p Params) decomposer { return newDecomposerLB(p.L, p.BgBits) }

// TrgswNTT is a TRGSW ciphertext with every row stored in the NTT domain,
// ready for external products: rows[r][c] is component c of row r.
type TrgswNTT struct {
	rows [][][]uint64
}

// EncryptTrgsw encrypts the small integer message m (typically a key bit)
// as a TRGSW sample in the NTT domain.
func (k *TrlweKey) EncryptTrgsw(p Params, m int32, rng prng.Source) *TrgswNTT {
	zero := make(TorusPoly, p.N)
	g := &TrgswNTT{}
	for i := 0; i <= p.K; i++ { // which component carries the gadget
		for j := 0; j < p.L; j++ {
			row := k.Encrypt(zero, p.BkSigma, rng)
			gval := Torus(m) << uint(32-(j+1)*p.BgBits)
			if i < p.K {
				row.A[i][0] += gval
			} else {
				row.B[0] += gval
			}
			var comps [][]uint64
			for c := 0; c < p.K; c++ {
				comps = append(comps, k.pm.TorusToNTT(row.A[c]))
			}
			comps = append(comps, k.pm.TorusToNTT(row.B))
			g.rows = append(g.rows, comps)
		}
	}
	return g
}

// ExternalProduct computes g ⊡ s ≈ TRLWE(m_g · m_s).
func ExternalProduct(p Params, pm *PolyMultiplier, dec decomposer, g *TrgswNTT, s *TrlweSample) *TrlweSample {
	digits := make([]IntPoly, p.L)
	for j := range digits {
		digits[j] = make(IntPoly, p.N)
	}
	acc := make([][]uint64, p.K+1)
	for c := range acc {
		acc[c] = make([]uint64, p.N)
	}
	row := 0
	for i := 0; i <= p.K; i++ {
		comp := s.B
		if i < p.K {
			comp = s.A[i]
		}
		dec.decompose(comp, digits)
		for _, d := range digits {
			dNTT := pm.IntToNTT(d)
			for c := range acc {
				pm.MulAcc(dNTT, g.rows[row][c], acc[c])
			}
			row++
		}
	}
	out := NewTrlweSample(p.N, p.K)
	for c := 0; c < p.K; c++ {
		pm.FromNTTInto(acc[c], out.A[c])
	}
	pm.FromNTTInto(acc[p.K], out.B)
	return out
}

// CMux returns d0 + g ⊡ (d1 - d0): selects d1 when g encrypts 1, d0 when 0.
// Both inputs are preserved.
func CMux(p Params, pm *PolyMultiplier, dec decomposer, g *TrgswNTT, d1, d0 *TrlweSample) *TrlweSample {
	diff := d1.Copy()
	diff.SubTo(d0)
	out := ExternalProduct(p, pm, dec, g, diff)
	out.AddTo(d0)
	return out
}

// blindRotateEagerInto overwrites acc with X^{-phase}·tv by NLwe CMuxes over
// the per-bit key bk. abar holds the Z_{2N} exponents (modSwitchInto
// layout).
func (s *Scheme) blindRotateEagerInto(bk []*TrgswNTT, abar []int32, tv TorusPoly, acc *TrlweSample) {
	p := s.Params
	dec := newDecomposer(p)
	initAccInto(abar, p.NLwe, tv, acc)
	for i := 0; i < p.NLwe; i++ {
		if abar[i] != 0 {
			*acc = *CMux(p, s.PM, dec, bk[i], acc.MonomialMul(int(abar[i])), acc)
		}
	}
}

// eagerBK caches the reference bootstrapping key of the last scheme asked
// for, so fuzz iterations on the shared test scheme build it once.
var eagerBK struct {
	sync.Mutex
	s  *Scheme
	bk []*TrgswNTT
}

// eagerBootKey returns one TRGSW encryption of each level-0 key bit of s,
// drawn from a PRNG derived from the scheme seed.
func eagerBootKey(s *Scheme) []*TrgswNTT {
	eagerBK.Lock()
	defer eagerBK.Unlock()
	if eagerBK.s != s {
		p := s.Params
		rng := prng.New(s.seed ^ 0x3e4a6e7b00c5)
		bk := make([]*TrgswNTT, p.NLwe)
		for i := range bk {
			bk[i] = s.TrlweKey.EncryptTrgsw(p, s.LweKey.S[i], rng)
		}
		eagerBK.s, eagerBK.bk = s, bk
	}
	return eagerBK.bk
}

// eagerBootstrap is the reference programmable bootstrap: exact-NTT blind
// rotation, sample extraction, and a key switch with all KsT digits.
func (s *Scheme) eagerBootstrap(ct *LweSample, tv TorusPoly) *LweSample {
	p := s.Params
	abar := make([]int32, p.NLwe+1)
	modSwitchInto(ct, 2*p.N, abar)
	acc := NewTrlweSample(p.N, p.K)
	s.blindRotateEagerInto(eagerBootKey(s), abar, tv, acc)
	out := NewLweSample(p.NLwe)
	s.keySwitchInto(s.KSK, SampleExtract(acc), p.KsT, out)
	return out
}

// Copy returns a deep copy.
func (s *TrlweSample) Copy() *TrlweSample {
	out := &TrlweSample{A: make([]TorusPoly, len(s.A)), B: append(TorusPoly(nil), s.B...)}
	for i := range s.A {
		out.A[i] = append(TorusPoly(nil), s.A[i]...)
	}
	return out
}

// AddTo sets s += o.
func (s *TrlweSample) AddTo(o *TrlweSample) {
	for i := range s.A {
		s.A[i].AddTo(o.A[i])
	}
	s.B.AddTo(o.B)
}

// SubTo sets s -= o.
func (s *TrlweSample) SubTo(o *TrlweSample) {
	for i := range s.A {
		s.A[i].SubTo(o.A[i])
	}
	s.B.SubTo(o.B)
}

// MonomialMul returns X^e · s (negacyclic rotation of every component).
func (s *TrlweSample) MonomialMul(e int) *TrlweSample {
	out := NewTrlweSample(len(s.B), len(s.A))
	for i := range s.A {
		s.A[i].MonomialMulTo(e, out.A[i])
	}
	s.B.MonomialMulTo(e, out.B)
	return out
}

func TestExternalProductAndCMux(t *testing.T) {
	p := FastTestParams()
	pm, err := NewPolyMultiplier(p.N)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	key := NewTrlweKey(p, pm, rng)
	dec := newDecomposer(p)

	mu := make(TorusPoly, p.N)
	for i := range mu {
		if i%3 == 0 {
			mu[i] = TorusFromDouble(-0.125)
		} else {
			mu[i] = TorusFromDouble(0.125)
		}
	}
	ct := key.Encrypt(mu, 1e-9, rng)

	for _, bit := range []int32{0, 1} {
		g := key.EncryptTrgsw(p, bit, rng)
		prod := ExternalProduct(p, pm, dec, g, ct)
		phase := key.Phase(prod)
		for i := range mu {
			want := 0.0
			if bit == 1 {
				want = DoubleFromTorus(mu[i])
			}
			if math.Abs(DoubleFromTorus(phase[i])-want) > 1e-3 {
				t.Fatalf("external product bit=%d slot %d: phase %v want %v",
					bit, i, DoubleFromTorus(phase[i]), want)
			}
		}
	}

	// CMux selects.
	d0 := key.Encrypt(make(TorusPoly, p.N), 1e-9, rng) // zeros
	d1 := key.Encrypt(mu, 1e-9, rng)
	for _, bit := range []int32{0, 1} {
		g := key.EncryptTrgsw(p, bit, rng)
		sel := CMux(p, pm, dec, g, d1, d0)
		phase := key.Phase(sel)
		for i := range mu {
			want := 0.0
			if bit == 1 {
				want = DoubleFromTorus(mu[i])
			}
			if math.Abs(DoubleFromTorus(phase[i])-want) > 1e-3 {
				t.Fatalf("CMux bit=%d slot %d wrong", bit, i)
			}
		}
	}
}
