package tfhe

import "alchemist/internal/prng"

// TrlweSample is a ring-LWE ciphertext (A_0..A_{k-1}, B) over the torus with
// phase B - Σ A_i·s_i.
type TrlweSample struct {
	A []TorusPoly // k mask polynomials
	B TorusPoly
}

// NewTrlweSample allocates a zero sample.
func NewTrlweSample(n, k int) *TrlweSample {
	s := &TrlweSample{A: make([]TorusPoly, k), B: make(TorusPoly, n)}
	for i := range s.A {
		s.A[i] = make(TorusPoly, n)
	}
	return s
}

// TrlweKey is a binary ring key (k polynomials).
type TrlweKey struct {
	S  []IntPoly
	pm *PolyMultiplier
	// sFFT caches the folded spectrum of each key polynomial for
	// encryption.
	sFFT [][]complex128
}

// NewTrlweKey samples a binary TRLWE key.
func NewTrlweKey(p Params, pm *PolyMultiplier, rng prng.Source) *TrlweKey {
	s := make([]IntPoly, p.K)
	for i := range s {
		s[i] = make(IntPoly, p.N)
		for j := range s[i] {
			s[i][j] = int32(rng.Intn(2))
		}
	}
	return newTrlweKey(pm, s)
}

// newTrlweKey wraps the binary key polynomials s and transforms them once.
func newTrlweKey(pm *PolyMultiplier, s []IntPoly) *TrlweKey {
	k := &TrlweKey{S: s, pm: pm, sFFT: make([][]complex128, len(s))}
	for i := range s {
		k.sFFT[i] = make([]complex128, pm.fft.h)
		pm.fft.fwdInt(s[i], k.sFFT[i])
	}
	return k
}

// Encrypt encrypts the torus polynomial mu with noise sigma.
func (k *TrlweKey) Encrypt(mu TorusPoly, sigma float64, rng prng.Source) *TrlweSample {
	n := k.pm.N
	s := NewTrlweSample(n, len(k.S))
	for i := range s.A {
		for j := 0; j < n; j++ {
			s.A[i][j] = rngTorus(rng)
		}
	}
	k.keyProductInto(s.A, s.B)
	for j := 0; j < n; j++ {
		s.B[j] += mu[j] + gaussianTorus(rng, sigma)
	}
	return s
}

// keyProductInto sets out = Σ_i a_i·s_i, the exact negacyclic product mod
// 2^32, on the FFT. Each mask word splits into centered 16-bit halves,
// a = lo + 2^16·hi with lo, hi ∈ [-2^15, 2^15), and each half is multiplied
// by the cached key spectrum. Against the binary key every coefficient of a
// half-product is an integer of magnitude at most k·N·2^15, far inside
// float64's exact range, so rounding recovers it exactly and
// lo·s + 2^16·(hi·s) mod 2^32 is the product word for word.
func (k *TrlweKey) keyProductInto(a []TorusPoly, out TorusPoly) {
	pm := k.pm
	f := pm.fft
	half := pm.borrowInt()
	spec := pm.borrowCplx()
	accLo := pm.borrowCplx()
	accHi := pm.borrowCplx()
	clear(accLo)
	clear(accHi)
	for i, ai := range a {
		for j, v := range ai {
			half[j] = int32(int16(v))
		}
		f.fwdInt(half, spec)
		cmulAdd(accLo, spec, k.sFFT[i])
		for j, v := range ai {
			half[j] = int32(int16((v - Torus(int16(v))) >> 16))
		}
		f.fwdInt(half, spec)
		cmulAdd(accHi, spec, k.sFFT[i])
	}
	f.invTorusInto(accHi, out)
	for j := range out {
		out[j] <<= 16
	}
	f.invTorusAddInto(accLo, out)
	pm.releaseCplx(accHi)
	pm.releaseCplx(accLo)
	pm.releaseCplx(spec)
	pm.releaseInt(half)
}

// ExtractedLweKey returns the LWE key of dimension k·N matching
// SampleExtract.
func (k *TrlweKey) ExtractedLweKey() *LweKey {
	n := k.pm.N
	out := &LweKey{S: make([]int32, len(k.S)*n)}
	for i := range k.S {
		copy(out.S[i*n:], k.S[i])
	}
	return out
}

// SampleExtract extracts the constant coefficient of a TRLWE phase as an LWE
// sample of dimension k·N.
func SampleExtract(s *TrlweSample) *LweSample {
	out := NewLweSample(len(s.A) * len(s.B))
	SampleExtractInto(s, out)
	return out
}

// SampleExtractInto is SampleExtract writing into a caller-provided sample
// of dimension k·N (fully overwritten) — the allocation-free form the
// bootstrap pipeline's extract stage uses.
//
//alchemist:hot
func SampleExtractInto(s *TrlweSample, out *LweSample) {
	n := len(s.B)
	k := len(s.A)
	for i := 0; i < k; i++ {
		out.A[i*n] = s.A[i][0]
		for j := 1; j < n; j++ {
			out.A[i*n+j] = -s.A[i][n-j]
		}
	}
	out.B = s.B[0]
}

// Gadget decomposition -------------------------------------------------------

// decomposer performs the signed base-2^BgBits decomposition of torus values
// into L digits in [-Bg/2, Bg/2).
type decomposer struct {
	l      int
	bgBits int
	halfBg int32
	mask   Torus
	offset Torus
}

// decompose writes the L digit polynomials of p into out (each length N).
// The AVX2 digit kernel is exact integer arithmetic, bit-identical to the
// scalar loop; the scalar path covers the tail and non-amd64 builds.
func (d decomposer) decompose(p TorusPoly, out []IntPoly) {
	i0 := 0
	if useAVX2 {
		n := len(p) &^ 7
		for j := 0; j < d.l; j++ {
			shift := uint32(32 - (j+1)*d.bgBits)
			decompDigitVec(p[:n], out[j][:n], uint32(d.offset), shift, uint32(d.mask), d.halfBg)
		}
		i0 = n
	}
	for i := i0; i < len(p); i++ {
		vt := p[i] + d.offset
		for j := 0; j < d.l; j++ {
			shift := uint(32 - (j+1)*d.bgBits)
			out[j][i] = int32((vt>>shift)&d.mask) - d.halfBg
		}
	}
}
