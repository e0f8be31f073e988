package modmath

import "math/big"

// CRTReconstruct returns the unique x in [0, prod(moduli)) with
// x ≡ residues[i] (mod moduli[i]) for all i, as a big.Int. The moduli must be
// pairwise coprime. It rebuilds the product, every q̂_i and every modular
// inverse on each call, so it is a reference, not a decoder: the CKKS and
// BGV decodes run ring.CRT's per-level precomputed word-wise
// reconstruction, and their fuzzers check it against this function. Panics
// if the slice lengths differ.
func CRTReconstruct(residues, moduli []uint64) *big.Int {
	if len(residues) != len(moduli) {
		panic("modmath: residue/modulus length mismatch")
	}
	prod := big.NewInt(1)
	for _, q := range moduli {
		prod.Mul(prod, new(big.Int).SetUint64(q))
	}
	x := new(big.Int)
	tmp := new(big.Int)
	for i, q := range moduli {
		qi := new(big.Int).SetUint64(q)
		qiHat := new(big.Int).Div(prod, qi)       // prod / q_i
		inv := new(big.Int).ModInverse(qiHat, qi) // (prod/q_i)^{-1} mod q_i
		tmp.SetUint64(residues[i])
		tmp.Mul(tmp, inv)
		tmp.Mod(tmp, qi)
		tmp.Mul(tmp, qiHat)
		x.Add(x, tmp)
	}
	return x.Mod(x, prod)
}

// CRTDecompose returns x mod q_i for each modulus, where x may be negative
// (interpreted modulo prod(moduli)).
func CRTDecompose(x *big.Int, moduli []uint64) []uint64 {
	out := make([]uint64, len(moduli))
	tmp := new(big.Int)
	for i, q := range moduli {
		qi := new(big.Int).SetUint64(q)
		tmp.Mod(x, qi)
		if tmp.Sign() < 0 {
			tmp.Add(tmp, qi)
		}
		out[i] = tmp.Uint64()
	}
	return out
}
