// Package oracle holds the reference arithmetic that tests in more than one
// package check the production kernels against: the NTT product of two
// polynomials, the centered big-integer CRT reconstruction of a polynomial,
// and the decode edge-value generator. Reference code one package alone
// uses stays in that package's _test.go files.
//
// Only _test.go files import this package; TestOracleImportedOnlyByTests in
// the module root fails if a non-test file does.
package oracle

import (
	"math/big"

	"alchemist/internal/modmath"
	"alchemist/internal/prng"
	"alchemist/internal/ring"
)

// MulPoly sets out = a·b in R_q at levels 0..level through the NTT, with
// every argument in the coefficient domain. Scratch comes from r's arena.
func MulPoly(r *ring.Ring, level int, a, b, out *ring.Poly) {
	an := r.Borrow(level)
	bn := r.Borrow(level)
	r.CopyLevel(level, a, an)
	r.CopyLevel(level, b, bn)
	r.NTT(level, an)
	r.NTT(level, bn)
	r.MulCoeffs(level, an, bn, an)
	r.INTT(level, an)
	r.CopyLevel(level, an, out)
	r.Release(an)
	r.Release(bn)
}

// Centered returns the coefficients of p (levels 0..level) reconstructed
// over Q_level = q_0…q_level by big-integer CRT and centered: a value above
// ⌊Q_level/2⌋ becomes value − Q_level.
func Centered(r *ring.Ring, level int, p *ring.Poly) []*big.Int {
	q := r.Modulus(level)
	half := new(big.Int).Rsh(q, 1)
	out := r.PolyToBigCoeffs(level, p)
	for _, x := range out {
		if x.Cmp(half) > 0 {
			x.Sub(x, q)
		}
	}
	return out
}

// DecodeEdgePoly fills a level-`level` polynomial with the values where a
// CRT decode goes wrong first. Coefficients 0–9 hold 0, ±1, ±⌊Q/2⌋ and
// ±(⌊Q/2⌋±1); coefficient 10 has every limb at q_i − 1. The rest cycle
// through residues that are 0 or q_i − 1 in a random subset of limbs,
// signed values of random bit length up to that of Q, values a small
// distance from ±⌊Q/2⌋, and float64 rounding ties (a 54-bit odd mantissa
// at a random shift, with or without a lower sticky bit).
func DecodeEdgePoly(r *ring.Ring, level int, seed int64) *ring.Poly {
	rng := prng.New(seed)
	moduli := r.Moduli[:level+1]
	q := r.Modulus(level)
	half := new(big.Int).Rsh(q, 1)
	one := big.NewInt(1)
	p := r.NewPoly(level)
	set := func(j int, x *big.Int) {
		for i, v := range modmath.CRTDecompose(x, moduli) {
			p.Coeffs[i][j] = v
		}
	}
	neg := func(x *big.Int) *big.Int { return new(big.Int).Neg(x) }
	edges := []*big.Int{
		new(big.Int), one, neg(one),
		half, neg(half),
		new(big.Int).Add(half, one), neg(new(big.Int).Add(half, one)),
		new(big.Int).Sub(half, one), neg(new(big.Int).Sub(half, one)),
		new(big.Int).Sub(q, one),
	}
	for j, x := range edges {
		set(j, x)
	}
	for i, qi := range moduli {
		p.Coeffs[i][len(edges)] = qi - 1
	}
	for j := len(edges) + 1; j < r.N; j++ {
		x := new(big.Int)
		switch rng.Intn(4) {
		case 0:
			for i, qi := range moduli {
				switch rng.Intn(3) {
				case 0:
					p.Coeffs[i][j] = 0
				case 1:
					p.Coeffs[i][j] = qi - 1
				default:
					p.Coeffs[i][j] = prng.UniformMod(rng, qi)
				}
			}
			continue
		case 1:
			for x.BitLen() < q.BitLen() {
				x.Lsh(x, 64).Or(x, new(big.Int).SetUint64(rng.Uint64()))
			}
			x.Rsh(x, uint(rng.Intn(q.BitLen())+1))
		case 2:
			x.Sub(half, big.NewInt(int64(rng.Intn(1<<20))))
		default:
			x.SetUint64(rng.Uint64()>>10 | 1<<53 | 1)
			shift := max(q.BitLen()-56, 1)
			x.Lsh(x, uint(rng.Intn(shift)+1))
			if rng.Intn(2) == 0 {
				x.Add(x, one)
			}
		}
		if x.Cmp(half) > 0 {
			x.Rsh(x, 1)
		}
		if rng.Intn(2) == 0 {
			x.Neg(x)
		}
		set(j, x)
	}
	return p
}
