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
	// sNTT caches the NTT of each key polynomial for fast encryption.
	sNTT [][]uint64
}

// NewTrlweKey samples a binary TRLWE key.
func NewTrlweKey(p Params, pm *PolyMultiplier, rng prng.Source) *TrlweKey {
	k := &TrlweKey{pm: pm}
	for i := 0; i < p.K; i++ {
		s := make(IntPoly, p.N)
		for j := range s {
			s[j] = int32(rng.Intn(2))
		}
		k.S = append(k.S, s)
		k.sNTT = append(k.sNTT, pm.IntToNTT(s))
	}
	return k
}

// Encrypt encrypts the torus polynomial mu with noise sigma.
func (k *TrlweKey) Encrypt(mu TorusPoly, sigma float64, rng prng.Source) *TrlweSample {
	n := k.pm.N
	s := NewTrlweSample(n, len(k.S))
	acc := make([]uint64, n)
	for i := range k.S {
		for j := 0; j < n; j++ {
			s.A[i][j] = rngTorus(rng)
		}
		k.pm.MulAcc(k.pm.TorusToNTT(s.A[i]), k.sNTT[i], acc)
	}
	dot := k.pm.FromNTT(acc)
	for j := 0; j < n; j++ {
		s.B[j] = dot[j] + mu[j] + gaussianTorus(rng, sigma)
	}
	return s
}

// Phase returns B - Σ A_i·s_i.
func (k *TrlweKey) Phase(s *TrlweSample) TorusPoly {
	n := k.pm.N
	acc := make([]uint64, n)
	for i := range k.S {
		k.pm.MulAcc(k.pm.TorusToNTT(s.A[i]), k.sNTT[i], acc)
	}
	dot := k.pm.FromNTT(acc)
	out := append(TorusPoly(nil), s.B...)
	out.SubTo(dot)
	return out
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
