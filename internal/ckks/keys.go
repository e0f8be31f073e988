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
	secret, noise := rlwe.Samplers(rng, ctx.Params.Sigma)
	return &KeyGenerator{
		KeyGenerator: rlwe.NewKeyGenerator(ctx.Context, rng, secret, noise),
		ctx:          ctx,
		rng:          rng,
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
