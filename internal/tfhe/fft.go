package tfhe

// Negacyclic floating-point transform: the blind-rotation engine of the
// trimmed bootstrapping accumulator and, over 16-bit mask halves, the exact
// key-generation product (trlwe.go). A length-N real negacyclic product
// folds into a length-N/2 complex transform (half the butterflies of a
// complex FFT of the same degree, and complex multiply-accumulate beats the
// Barrett-reduced integer pointwise product ~3x per slot).
//
// Folding: for p ∈ R[X]/(X^N+1) put c[j] = (p[j] + i·p[j+H])·φ^j with
// H = N/2 and φ = e^{iπ/N}. The map lands in C[X]/(X^H − i); a plain
// length-H DFT with the e^{+2πijk/H} convention evaluates p at the 2N-th
// root ζ^{4k+1}, ζ = e^{iπ/N}. The H slots pick exactly one root from each
// conjugate pair of the N odd roots of X^N+1, so pointwise products of two
// folded spectra ARE negacyclic products — no redundancy, no cross terms.
//
// Precision: gadget digits |d| ≤ 2^10 (trimmed base), torus operands < 2^31,
// so one convolution term is < 2^52 and the three-term pair-bundled
// accumulation stays ≤ ~2^56. With 53-bit mantissas the rounding error at
// the final round-to-torus is a few torus ulps (~2^-30 of the torus) —
// measured ≤ 1 ulp for single products — far below the 2^-15 noise floor.
// EXPERIMENTS.md carries the full budget.
//
// Layout mirrors the integer NTT (nttlazy.go): the forward transform is
// decimation-in-frequency, natural order in, bit-reversed order out; the
// inverse is decimation-in-time, bit-reversed in, natural out. No
// permutation pass ever runs. Stage twiddles live in one table indexed
// roots[m+j] = e^{iπj/m}, the classic implicit per-stage layout.

import (
	"math"
	"sync"
)

// fftTables holds the precomputed tables for one ring degree N.
type fftTables struct {
	n, h int // real degree, complex size n/2

	tw  []complex128 // fold twist φ^j = e^{iπj/n}, j < h
	itw []complex128 // conj(tw)/h: unfold, with the 1/h normalization folded in

	roots []complex128 // roots[m+j] = e^{+iπj/m} for stage half-size m (forward)
	irts  []complex128 // conjugate stage table (inverse)

	// rotExp[s] is the exponent of the evaluation root held by spectrum slot
	// s: slot s carries p(ζ^rotExp[s]) with ζ = e^{iπ/n}, so multiplying a
	// spectrum slotwise by r2n[(e·rotExp[s]) mod 2n] is exactly the
	// negacyclic rotation X^e — rotation costs one table lookup and one
	// complex multiply per slot instead of a transform round trip.
	rotExp []int32
	r2n    []complex128 // r2n[m] = e^{iπm/n}, m < 2n
}

func newFFTTables(n int) *fftTables {
	h := n / 2
	f := &fftTables{n: n, h: h}
	f.tw = make([]complex128, h)
	f.itw = make([]complex128, h)
	inv := 1 / float64(h)
	for j := 0; j < h; j++ {
		ang := math.Pi * float64(j) / float64(n)
		s, c := math.Sincos(ang)
		f.tw[j] = complex(c, s)
		f.itw[j] = complex(c*inv, -s*inv)
	}
	f.roots = make([]complex128, h)
	f.irts = make([]complex128, h)
	for m := 1; m < h; m <<= 1 {
		for j := 0; j < m; j++ {
			ang := math.Pi * float64(j) / float64(m)
			s, c := math.Sincos(ang)
			f.roots[m+j] = complex(c, s)
			f.irts[m+j] = complex(c, -s)
		}
	}
	logH := 0
	for 1<<uint(logH) < h {
		logH++
	}
	f.rotExp = make([]int32, h)
	for s := 0; s < h; s++ {
		br := 0
		for b := 0; b < logH; b++ {
			if s&(1<<uint(b)) != 0 {
				br |= 1 << uint(logH-1-b)
			}
		}
		f.rotExp[s] = int32((4*br + 1) & (2*n - 1))
	}
	f.r2n = make([]complex128, 2*n)
	for m := 0; m < 2*n; m++ {
		ang := math.Pi * float64(m) / float64(n)
		s, c := math.Sincos(ang)
		f.r2n[m] = complex(c, s)
	}
	return f
}

// fwdStages runs the in-place forward butterfly network: natural order in,
// bit-reversed out. Stages with m ≥ 2 dispatch to the AVX kernel when the
// CPU has it (fftkern_amd64.go — bit-identical to the scalar loop); the
// final m=1 stage multiplies by roots[1] = 1 and stays scalar.
//
//alchemist:hot
func (f *fftTables) fwdStages(c []complex128) {
	h := f.h
	m := h >> 1
	if useAVX {
		for ; m >= 2; m >>= 1 {
			fwdStageVec(c, f.roots[m:2*m], m)
		}
	}
	for ; m >= 1; m >>= 1 {
		w := f.roots[m : 2*m]
		for base := 0; base < h; base += m << 1 {
			x := c[base : base+m : base+m]
			y := c[base+m : base+(m<<1) : base+(m<<1)]
			for j := range x {
				u, v := x[j], y[j]
				x[j] = u + v
				y[j] = (u - v) * w[j]
			}
		}
	}
}

// invStages runs the in-place inverse butterfly network: bit-reversed in,
// natural order out. The output is h·IDFT; itw absorbs the 1/h. The first
// m=1 stage (twiddle 1) runs scalar; the rest dispatch to the AVX kernel
// when available.
//
//alchemist:hot
func (f *fftTables) invStages(c []complex128) {
	h := f.h
	m := 1
	{
		w := f.irts[m : 2*m]
		for base := 0; base < h; base += m << 1 {
			x := c[base : base+m : base+m]
			y := c[base+m : base+(m<<1) : base+(m<<1)]
			for j := range x {
				u := x[j]
				v := y[j] * w[j]
				x[j] = u + v
				y[j] = u - v
			}
		}
		m <<= 1
	}
	if useAVX {
		for ; m < h; m <<= 1 {
			invStageVec(c, f.irts[m:2*m], m)
		}
		return
	}
	for ; m < h; m <<= 1 {
		w := f.irts[m : 2*m]
		for base := 0; base < h; base += m << 1 {
			x := c[base : base+m : base+m]
			y := c[base+m : base+(m<<1) : base+(m<<1)]
			for j := range x {
				u := x[j]
				v := y[j] * w[j]
				x[j] = u + v
				y[j] = u - v
			}
		}
	}
}

// fwdInt transforms a signed digit polynomial into its folded spectrum.
// out must have length h and is fully overwritten.
//
//alchemist:hot
func (f *fftTables) fwdInt(p IntPoly, out []complex128) {
	h := f.h
	lo, hi, tw := p[:h:h], p[h:2*h:2*h], f.tw[:h:h]
	j0 := 0
	if useAVX {
		j0 = h &^ 1
		fwdTwistVec(lo[:j0], hi[:j0], tw[:j0], out[:j0])
	}
	for j := j0; j < h; j++ {
		out[j] = complex(float64(lo[j]), float64(hi[j])) * tw[j]
	}
	f.fwdStages(out)
}

// fwdTorus transforms a torus polynomial (centered signed interpretation)
// into its folded spectrum.
//
//alchemist:hot
func (f *fftTables) fwdTorus(p TorusPoly, out []complex128) {
	h := f.h
	lo, hi, tw := p[:h:h], p[h:2*h:2*h], f.tw[:h:h]
	j0 := 0
	if useAVX {
		j0 = h &^ 1
		fwdTwistTorusVec(lo[:j0], hi[:j0], tw[:j0], out[:j0])
	}
	for j := j0; j < h; j++ {
		out[j] = complex(float64(int32(lo[j])), float64(int32(hi[j]))) * tw[j]
	}
	f.fwdStages(out)
}

// invTorusAddInto inverse-transforms a spectrum and ADDS the rounded torus
// result into out (length n). c is CONSUMED (the butterflies run in place).
//
//alchemist:hot
func (f *fftTables) invTorusAddInto(c []complex128, out TorusPoly) {
	f.invStages(c)
	h := f.h
	lo, hi, itw := out[:h:h], out[h:2*h:2*h], f.itw[:h:h]
	j0 := 0
	if useAVX2 {
		j0 = h &^ 3
		invTwistRoundVec(c[:j0], itw[:j0], lo[:j0], hi[:j0], 1)
	}
	for j := j0; j < h; j++ {
		z := c[j] * itw[j]
		lo[j] += Torus(int64(math.Round(real(z))))
		hi[j] += Torus(int64(math.Round(imag(z))))
	}
}

// invTorusInto is invTorusAddInto with overwrite semantics.
//
//alchemist:hot
func (f *fftTables) invTorusInto(c []complex128, out TorusPoly) {
	f.invStages(c)
	h := f.h
	lo, hi, itw := out[:h:h], out[h:2*h:2*h], f.itw[:h:h]
	j0 := 0
	if useAVX2 {
		j0 = h &^ 3
		invTwistRoundVec(c[:j0], itw[:j0], lo[:j0], hi[:j0], 0)
	}
	for j := j0; j < h; j++ {
		z := c[j] * itw[j]
		lo[j] = Torus(int64(math.Round(real(z))))
		hi[j] = Torus(int64(math.Round(imag(z))))
	}
}

// rotFactorInto writes the spectrum of the negacyclic monomial X^e into out:
// out[s] = ζ^{e·rotExp[s]}.
//
//alchemist:hot
func (f *fftTables) rotFactorInto(e int, out []complex128) {
	mask := int32(2*f.n - 1)
	ee := int32(e) & mask
	r2n, rot := f.r2n, f.rotExp
	for s := range out {
		out[s] = r2n[(ee*rot[s])&mask]
	}
}

// cplxPool recycles []complex128 spectrum scratch, mirroring ring.BufPool's
// boxed-header trick so a steady-state Get/Put cycle allocates nothing.
type cplxPool struct {
	bufs sync.Pool // *[]complex128 with the buffer attached
	hdrs sync.Pool // spare header boxes
}

func (cp *cplxPool) Get(n int) []complex128 {
	if v := cp.bufs.Get(); v != nil {
		h := v.(*[]complex128)
		b := *h
		*h = nil
		cp.hdrs.Put(h)
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]complex128, n)
}

func (cp *cplxPool) Put(b []complex128) {
	if b == nil {
		return
	}
	var h *[]complex128
	if v := cp.hdrs.Get(); v != nil {
		h = v.(*[]complex128)
	} else {
		h = new([]complex128)
	}
	*h = b[:cap(b)]
	cp.bufs.Put(h)
}

// Arena accessors for spectrum scratch, named for the arena-lifetime rule's
// Borrow/Release vocabulary like the digit arena in poly.go.

func (pm *PolyMultiplier) borrowCplx() []complex128   { return pm.cplx.Get(pm.fft.h) }
func (pm *PolyMultiplier) releaseCplx(b []complex128) { pm.cplx.Put(b) }

// Pointwise complex passes used by the pair-bundled accumulator. The AVX
// kernels (bit-identical, see fftkern_amd64.go) take even-length slices; the
// spectrum length h is always even, so the scalar loops are the non-amd64
// fallback rather than a tail path.

//alchemist:hot
func cmulTo(dst, a, b []complex128) {
	if useAVX && len(a)&1 == 0 {
		cmulToVec(dst, a, b)
		return
	}
	cmulToScalar(dst, a, b)
}

//alchemist:hot
func cmulAdd(acc, a, b []complex128) {
	if useAVX && len(a)&1 == 0 {
		cmulAddVec(acc, a, b)
		return
	}
	cmulAddScalar(acc, a, b)
}

//alchemist:hot
func cmulToScalar(dst, a, b []complex128) {
	_ = dst[len(a)-1]
	_ = b[len(a)-1]
	for i := range a {
		dst[i] = a[i] * b[i]
	}
}

//alchemist:hot
func cmulAddScalar(acc, a, b []complex128) {
	_ = acc[len(a)-1]
	_ = b[len(a)-1]
	for i := range a {
		acc[i] += a[i] * b[i]
	}
}
