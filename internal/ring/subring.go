// Package ring implements negacyclic polynomial rings R_q = Z_q[X]/(X^N+1)
// in residue-number-system (RNS) form, together with the polynomial kernels
// both FHE schemes are built from: the number-theoretic transform (NTT), RNS
// basis conversion (Bconv), ModUp/ModDown, gadget decomposition and
// automorphisms.
package ring

import (
	"fmt"

	"alchemist/internal/modmath"
)

// SubRing is the ring Z_q[X]/(X^N+1) for one RNS modulus q, with the
// precomputed NTT tables for negacyclic transforms of length N.
type SubRing struct {
	N int    // polynomial degree, a power of two
	Q uint64 // prime modulus, q ≡ 1 (mod 2N)

	Psi    uint64 // primitive 2N-th root of unity mod q
	PsiInv uint64

	// Twiddle tables in bit-reversed order (Longa–Naehrig layout), with
	// Shoup precomputations for the fast constant-multiplication path.
	psiRev         []uint64
	psiRevShoup    []uint64
	psiInvRev      []uint64
	psiInvRevShoup []uint64

	nInv      uint64 // N^{-1} mod q
	nInvShoup uint64

	// psiInvRevN = psiInvRev[1]·N^{-1} mod q: the last-stage INTT twiddle
	// with the scaling folded in, so INTTLazy needs no separate N^{-1} pass.
	psiInvRevN      uint64
	psiInvRevNShoup uint64

	// Base-2^52 Shoup tables for the AVX512-IFMA butterfly kernels:
	// w52 = ⌊w·2^52/q⌋ replaces the base-2^64 precomputation, so the lazy
	// product is two 52-bit madds instead of a composed 64×64 multiply.
	// Built only when the IFMA tier can run this subring (q < 2^50, so the
	// whole [0,4q) lazy domain fits a 52-bit madd operand).
	psiRev52     []uint64
	psiInvRev52  []uint64
	nInv52       uint64
	psiInvRevN52 uint64
	ifma         bool // IFMA tier usable: CPU support ∧ q < 2^50 ∧ N ≥ minVecN

	barrett modmath.Barrett
}

// NewSubRing builds the subring of degree n (a power of two ≥ 2) modulo the
// prime q, which must satisfy q ≡ 1 (mod 2n).
func NewSubRing(n int, q uint64) (*SubRing, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("ring: degree %d is not a power of two ≥ 2", n)
	}
	if !modmath.IsPrime(q) {
		return nil, fmt.Errorf("ring: modulus %d is not prime", q)
	}
	// 2n is a power of two (validated above), so the NTT-friendliness test
	// q ≡ 1 (mod 2N) reduces to a mask.
	if (q-1)&uint64(2*n-1) != 0 {
		return nil, fmt.Errorf("ring: modulus %d is not ≡ 1 mod 2N=%d", q, 2*n)
	}
	psi, err := modmath.RootOfUnity(uint64(2*n), q)
	if err != nil {
		return nil, err
	}
	s := &SubRing{
		N:       n,
		Q:       q,
		Psi:     psi,
		PsiInv:  modmath.InvMod(psi, q),
		barrett: modmath.NewBarrett(q),
	}
	s.buildTables()
	return s, nil
}

func (s *SubRing) buildTables() {
	n := s.N
	logN := log2(n)
	s.psiRev = make([]uint64, n)
	s.psiRevShoup = make([]uint64, n)
	s.psiInvRev = make([]uint64, n)
	s.psiInvRevShoup = make([]uint64, n)
	pow, powInv := uint64(1), uint64(1)
	for i := 0; i < n; i++ {
		r := bitrev(uint32(i), logN)
		s.psiRev[r] = pow
		s.psiInvRev[r] = powInv
		pow = modmath.MulMod(pow, s.Psi, s.Q)
		powInv = modmath.MulMod(powInv, s.PsiInv, s.Q)
	}
	for i := 0; i < n; i++ {
		s.psiRevShoup[i] = modmath.ShoupPrecomp(s.psiRev[i], s.Q)
		s.psiInvRevShoup[i] = modmath.ShoupPrecomp(s.psiInvRev[i], s.Q)
	}
	s.nInv = modmath.InvMod(uint64(n), s.Q)
	s.nInvShoup = modmath.ShoupPrecomp(s.nInv, s.Q)
	s.psiInvRevN = modmath.MulMod(s.psiInvRev[1], s.nInv, s.Q)
	s.psiInvRevNShoup = modmath.ShoupPrecomp(s.psiInvRevN, s.Q)
	if useNTTKernIFMA && s.Q < 1<<50 && n >= minVecN {
		s.ifma = true
		s.psiRev52 = make([]uint64, n)
		s.psiInvRev52 = make([]uint64, n)
		for i := 0; i < n; i++ {
			s.psiRev52[i] = shoup52(s.psiRev[i], s.Q)
			s.psiInvRev52[i] = shoup52(s.psiInvRev[i], s.Q)
		}
		s.nInv52 = shoup52(s.nInv, s.Q)
		s.psiInvRevN52 = shoup52(s.psiInvRevN, s.Q)
	}
}

func log2(n int) int {
	l := 0
	for 1<<l < n {
		l++
	}
	return l
}

func bitrev(x uint32, bits int) uint32 {
	var r uint32
	for i := 0; i < bits; i++ {
		r = r<<1 | (x & 1)
		x >>= 1
	}
	return r
}

// MulCoeffs sets out = a ⊙ b pointwise mod q (any domain).
func (s *SubRing) MulCoeffs(a, b, out []uint64) {
	for i := range out {
		out[i] = s.barrett.MulMod(a[i], b[i])
	}
}

// MulCoeffsShoup sets out = a ⊙ b pointwise mod q for reduced a, b < q and
// a fixed operand b with bShoup[i] = ShoupPrecomp(b[i], q): one high
// multiply and no Barrett reduction per coefficient. out may alias a.
func (s *SubRing) MulCoeffsShoup(a, b, bShoup, out []uint64) {
	q := s.Q
	a, b, bShoup = a[:len(out)], b[:len(out)], bShoup[:len(out)]
	for i := range out {
		out[i] = modmath.MulModShoup(a[i], b[i], bShoup[i], q)
	}
}

// ShoupConstants sets out[i] = ShoupPrecomp(b[i], q) for b < q: the fixed-
// operand precomputation MulCoeffsShoup takes.
func (s *SubRing) ShoupConstants(b, out []uint64) {
	for i := range out {
		out[i] = modmath.ShoupPrecomp(b[i], s.Q)
	}
}

// MulCoeffsAndAdd sets out = out + a ⊙ b pointwise mod q.
func (s *SubRing) MulCoeffsAndAdd(a, b, out []uint64) {
	q := s.Q
	for i := range out {
		out[i] = modmath.AddMod(out[i], s.barrett.MulMod(a[i], b[i]), q)
	}
}

// Add sets out = a + b pointwise mod q.
func (s *SubRing) Add(a, b, out []uint64) {
	q := s.Q
	for i := range out {
		out[i] = modmath.AddMod(a[i], b[i], q)
	}
}

// Sub sets out = a - b pointwise mod q.
func (s *SubRing) Sub(a, b, out []uint64) {
	q := s.Q
	for i := range out {
		out[i] = modmath.SubMod(a[i], b[i], q)
	}
}

// Neg sets out = -a pointwise mod q.
func (s *SubRing) Neg(a, out []uint64) {
	q := s.Q
	for i := range out {
		out[i] = modmath.NegMod(a[i], q)
	}
}

// ReduceWord folds an arbitrary 64-bit value into [0, Q) via the subring's
// precomputed Barrett state — the sanctioned alternative to a raw % when a
// residue crosses into this channel.
func (s *SubRing) ReduceWord(x uint64) uint64 { return s.barrett.ReduceWord(x) }

// MulScalar sets out = c · a pointwise mod q.
func (s *SubRing) MulScalar(a []uint64, c uint64, out []uint64) {
	c = s.barrett.ReduceWord(c)
	cs := modmath.ShoupPrecomp(c, s.Q)
	for i := range out {
		out[i] = modmath.MulModShoup(a[i], c, cs, s.Q)
	}
}

// MulScalarAndAdd sets out = out + c · a pointwise mod q.
func (s *SubRing) MulScalarAndAdd(a []uint64, c uint64, out []uint64) {
	c = s.barrett.ReduceWord(c)
	cs := modmath.ShoupPrecomp(c, s.Q)
	q := s.Q
	for i := range out {
		out[i] = modmath.AddMod(out[i], modmath.MulModShoup(a[i], c, cs, q), q)
	}
}
