package ckks

import (
	"slices"

	"alchemist/internal/prng"
	"alchemist/internal/rlwe"
)

// The key types and the hybrid gadget key generation are the shared RLWE
// core's (internal/rlwe); CKKS contributes its secret and error
// distributions and the rotation key set.
type (
	SecretKey    = rlwe.SecretKey
	PublicKey    = rlwe.PublicKey
	SwitchingKey = rlwe.SwitchingKey
)

// EvaluationKeySet bundles the relinearization key and rotation keys.
type EvaluationKeySet struct {
	Rlk  *SwitchingKey
	Rot  map[uint64]*SwitchingKey // Galois element -> key
	Conj *SwitchingKey
}

// KeyGenerator samples keys for a context: the shared generator (secret,
// public, switching, relinearization and Galois keys) over CKKS's
// distributions, plus sparse secrets and rotation key sets.
type KeyGenerator struct {
	*rlwe.KeyGenerator
	ctx *Context
	rng prng.Source
}

// NewKeyGenerator returns a deterministic key generator (test-grade
// randomness; see Sampler).
func NewKeyGenerator(ctx *Context, seed int64) *KeyGenerator {
	rng := prng.New(seed)
	secret, noise := samplers(rng, ctx.Params.Sigma)
	return &KeyGenerator{
		KeyGenerator: rlwe.NewKeyGenerator(ctx.Context, rng, secret, noise),
		ctx:          ctx,
		rng:          rng,
	}
}

// samplers returns CKKS's secret (ternary, density 2/3) and error (rounded
// Gaussian of deviation sigma) distributions over rng: the pair both key
// generation and encryption draw from.
func samplers(rng prng.Source, sigma float64) (secret, noise rlwe.Sampler) {
	return func(dst []int64) { signedTernary(rng, dst, 2.0/3.0) },
		func(dst []int64) { signedGaussian(rng, dst, sigma) }
}

// signedTernary fills v from {-1,0,1} with the given density.
func signedTernary(rng prng.Source, v []int64, density float64) {
	for i := range v {
		u := rng.Float64()
		switch {
		case u < density/2:
			v[i] = 1
		case u < density:
			v[i] = -1
		default:
			v[i] = 0
		}
	}
}

// signedGaussian fills v with rounded Gaussians of deviation sigma, clamped
// to ±6σ.
func signedGaussian(rng prng.Source, v []int64, sigma float64) {
	for i := range v {
		x := rng.NormFloat64() * sigma
		switch {
		case x > 6*sigma:
			x = 6 * sigma
		case x < -6*sigma:
			x = -6 * sigma
		}
		v[i] = int64(x + 0.5)
		if x < 0 {
			v[i] = -int64(-x + 0.5)
		}
	}
}

// GenSecretKeySparse samples a ternary secret with exactly h non-zero
// coefficients. Sparse secrets bound the ModRaise overflow count I(X) in
// bootstrapping (|I| ≤ h+2), shrinking the EvalMod approximation range —
// the standard HEAAN/BTS bootstrapping key choice.
func (kg *KeyGenerator) GenSecretKeySparse(h int) *SecretKey {
	n := kg.ctx.Params.N()
	if h > n {
		h = n
	}
	v := make([]int64, n)
	placed := 0
	for placed < h {
		j := kg.rng.Intn(n)
		if v[j] != 0 {
			continue
		}
		if kg.rng.Intn(2) == 0 {
			v[j] = 1
		} else {
			v[j] = -1
		}
		placed++
	}
	return kg.ctx.NewSecretKey(v)
}

// GenEvaluationKeySet generates the relinearization key plus rotation keys
// for the given rotation steps (and conjugation when conj is true). The
// keys draw from the generator's one stream in ascending rotation order, so
// a seed fixes the key set whatever order the steps come in.
func (kg *KeyGenerator) GenEvaluationKeySet(sk *SecretKey, rotations []int, conj bool) *EvaluationKeySet {
	rq := kg.ctx.RQ
	eks := &EvaluationKeySet{
		Rlk: kg.GenRelinKey(sk),
		Rot: map[uint64]*SwitchingKey{},
	}
	rotations = slices.Clone(rotations)
	slices.Sort(rotations)
	for _, r := range rotations {
		k := rq.GaloisElementForRotation(r)
		if _, ok := eks.Rot[k]; !ok {
			eks.Rot[k] = kg.GenGaloisKey(k, sk)
		}
	}
	if conj {
		eks.Conj = kg.GenGaloisKey(rq.GaloisElementConjugate(), sk)
	}
	return eks
}
