// Package ckks implements the RNS variant of the CKKS approximate-arithmetic
// FHE scheme: canonical-embedding encoding, encryption, homomorphic
// add/mult/rotate, rescaling and hybrid (dnum-decomposed) key switching.
//
// It serves two roles in this reproduction: it is the live "CPU baseline"
// measured by the benchmark harness, and its operation structure defines the
// op graphs lowered onto the Alchemist accelerator model.
package ckks

import (
	"fmt"
	"math"
	"math/big"
	"sync"

	"alchemist/internal/modmath"
	"alchemist/internal/rlwe"
)

// Parameters describes a CKKS instance.
type Parameters struct {
	LogN int // ring degree N = 2^LogN

	Q []uint64 // ciphertext moduli chain q_0 … q_L (level i keeps q_0…q_i)
	P []uint64 // special moduli p_0 … p_{K-1} for hybrid key switching

	Scale float64 // default encoding scale
	Dnum  int     // number of decomposition (digit) groups for key switching
	Sigma float64 // error standard deviation
}

// N returns the ring degree.
func (p Parameters) N() int { return 1 << p.LogN }

// Slots returns the number of packed complex slots (N/2).
func (p Parameters) Slots() int { return 1 << (p.LogN - 1) }

// MaxLevel returns L, the top ciphertext level.
func (p Parameters) MaxLevel() int { return len(p.Q) - 1 }

// Alpha returns the number of moduli per decomposition group,
// ceil((L+1)/dnum).
func (p Parameters) Alpha() int {
	return (len(p.Q) + p.Dnum - 1) / p.Dnum
}

// K returns the number of special moduli.
func (p Parameters) K() int { return len(p.P) }

// Validate checks structural consistency.
func (p Parameters) Validate() error {
	if p.LogN < 3 || p.LogN > 17 {
		return fmt.Errorf("ckks: LogN=%d out of range [3,17]", p.LogN)
	}
	if len(p.Q) == 0 {
		return fmt.Errorf("ckks: empty modulus chain")
	}
	if p.Dnum < 1 || p.Dnum > len(p.Q) {
		return fmt.Errorf("ckks: Dnum=%d out of range [1,%d]", p.Dnum, len(p.Q))
	}
	if len(p.P) == 0 {
		return fmt.Errorf("ckks: need at least one special modulus")
	}
	if p.Scale <= 0 {
		return fmt.Errorf("ckks: scale must be positive")
	}
	seen := map[uint64]bool{}
	for _, q := range append(append([]uint64{}, p.Q...), p.P...) {
		if seen[q] {
			return fmt.Errorf("ckks: duplicate modulus %d", q)
		}
		seen[q] = true
	}
	// Hybrid key switching needs P ≥ every digit-group product D_g, or the
	// d_g·e/P noise term swamps the plaintext.
	pProd := big.NewFloat(1)
	for _, pi := range p.P {
		pProd.Mul(pProd, new(big.Float).SetUint64(pi))
	}
	alpha := p.Alpha()
	for g := 0; g*alpha < len(p.Q); g++ {
		dg := big.NewFloat(1)
		for i := g * alpha; i < (g+1)*alpha && i < len(p.Q); i++ {
			dg.Mul(dg, new(big.Float).SetUint64(p.Q[i]))
		}
		if pProd.Cmp(dg) < 0 {
			return fmt.Errorf("ckks: special modulus P is smaller than digit group %d; increase K or Dnum", g)
		}
	}
	return nil
}

// GenParams generates a parameter set with a q0 of firstBits bits, `levels`
// scaling primes of scaleBits bits, and k special primes of specialBits bits.
// All primes are NTT-friendly for degree 2^logN.
func GenParams(logN, levels, dnum, k int, firstBits, scaleBits, specialBits uint64) (Parameters, error) {
	n2 := uint64(2) << uint(logN)
	// Draw primes per bit size from shared pools so equal bit sizes for q0,
	// the scale chain and the special moduli never collide.
	need := map[uint64]int{firstBits: 1}
	need[scaleBits] += levels
	need[specialBits] += k
	pools := map[uint64][]uint64{}
	for bits, count := range need {
		ps, err := modmath.GenerateNTTPrimes(bits, n2, count)
		if err != nil {
			return Parameters{}, err
		}
		pools[bits] = ps
	}
	take := func(bits uint64, count int) []uint64 {
		out := pools[bits][:count]
		pools[bits] = pools[bits][count:]
		return out
	}
	q := append([]uint64{}, take(firstBits, 1)...)
	q = append(q, take(scaleBits, levels)...)
	params := Parameters{
		LogN:  logN,
		Q:     q,
		P:     append([]uint64{}, take(specialBits, k)...),
		Scale: math.Exp2(float64(scaleBits)),
		Dnum:  dnum,
		Sigma: 3.2,
	}
	return params, params.Validate()
}

// TestParams returns a small parameter set for fast functional tests:
// N = 2^11, 5 levels of 40-bit scale, dnum = 3. Panics if the fixed
// generation recipe fails (it cannot, short of a regression in GenParams).
func TestParams() Parameters {
	p, err := GenParams(11, 5, 3, 2, 55, 40, 55)
	if err != nil {
		panic(err)
	}
	return p
}

// PaperParams returns the evaluation parameter descriptor used in the
// paper's Table 7 and Figure 6 (following SHARP): N = 2^16, L = 44 with
// 36-bit words, dnum = 4, K = 12 special moduli. It describes workload
// shapes for the accelerator model; instantiating the ring at this size is
// possible but expensive and not needed for cycle simulation.
func PaperParams() Parameters {
	q := make([]uint64, 45) // q_0 … q_44 (L = 44)
	for i := range q {
		q[i] = 1 // placeholder values: descriptor only
	}
	p := make([]uint64, 12)
	for i := range p {
		p[i] = 1
	}
	return Parameters{LogN: 16, Q: q, P: p, Scale: math.Exp2(36), Dnum: 4, Sigma: 3.2}
}

// Context carries the shared RLWE core (rings, converters, keyswitch
// tables; see internal/rlwe) for a CKKS parameter set.
type Context struct {
	*rlwe.Context
	Params Parameters

	// ctPool recycles Ciphertext wrappers (the polynomials themselves go
	// through the ring arenas); see Recycle in evaluator.go.
	ctPool sync.Pool
}

// NewContext instantiates rings and precomputations for params. CKKS
// divides by P with the plain ring.Extender.ModDown.
func NewContext(params Parameters) (*Context, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	core, err := rlwe.NewContext(rlwe.Parameters{LogN: params.LogN, Q: params.Q, P: params.P, Dnum: params.Dnum}, nil)
	if err != nil {
		return nil, err
	}
	return &Context{Context: core, Params: params}, nil
}
