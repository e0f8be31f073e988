package rlwe

import (
	"math/big"

	"alchemist/internal/modmath"
	"alchemist/internal/prng"
	"alchemist/internal/ring"
)

// SecretKey holds the ternary secret s over both the Q and P bases
// (coefficient domain).
type SecretKey struct {
	Q *ring.Poly
	P *ring.Poly
}

// PublicKey is an encryption of zero: B = -A·s + e over Q (coefficient
// domain).
type PublicKey struct {
	B *ring.Poly
	A *ring.Poly
}

// SwitchingKey re-encrypts a polynomial from key s' to key s using the
// hybrid (dnum-group) gadget: for each digit group g,
//
//	B_g = -A_g·s + e_g + W_g·s'   over Q·P,   A_g uniform over Q·P,
//
// where W_g = P · (Q/D_g) · [(Q/D_g)^{-1}]_{D_g} vanishes on the P channels.
// All polynomials are stored in the NTT domain, split into their Q and P
// parts.
type SwitchingKey struct {
	BQ, AQ []*ring.Poly // per group, over Q (level L), NTT domain
	BP, AP []*ring.Poly // per group, over P, NTT domain
}

// Sampler draws n signed coefficients from a scheme's distribution.
type Sampler func(n int) []int64

// KeyGenerator samples the keys both schemes share. The scheme supplies its
// secret and error distributions, and errors are scaled by the context's
// plaintext modulus t (1 for CKKS); that is all their keys differ in.
type KeyGenerator struct {
	ctx           *Context
	rng           prng.Source
	secret, noise Sampler
}

// NewKeyGenerator returns a key generator drawing uniform polynomials from
// rng and secrets and errors from the scheme's samplers.
func NewKeyGenerator(ctx *Context, rng prng.Source, secret, noise Sampler) *KeyGenerator {
	return &KeyGenerator{ctx: ctx, rng: rng, secret: secret, noise: noise}
}

// SignedPoly embeds scale·v, a signed coefficient vector, into a new poly
// over r at the given level.
func SignedPoly(r *ring.Ring, level int, v []int64, scale uint64) *ring.Poly {
	p := r.NewPoly(level)
	for i := 0; i <= level; i++ {
		q := r.Moduli[i]
		for j, x := range v {
			p.Coeffs[i][j] = modmath.ReduceSigned(x*int64(scale), q)
		}
	}
	return p
}

// UniformPoly samples a uniform poly over r at the given level.
func UniformPoly(rng prng.Source, r *ring.Ring, level int) *ring.Poly {
	p := r.NewPoly(level)
	for i := 0; i <= level; i++ {
		q := r.Moduli[i]
		for j := range p.Coeffs[i] {
			p.Coeffs[i][j] = prng.UniformMod(rng, q)
		}
	}
	return p
}

// NewSecretKey embeds the ternary vector v as a secret over Q and P.
func (c *Context) NewSecretKey(v []int64) *SecretKey {
	return &SecretKey{
		Q: SignedPoly(c.RQ, c.RQ.MaxLevel(), v, 1),
		P: SignedPoly(c.RP, c.RP.MaxLevel(), v, 1),
	}
}

// GenSecretKey samples a secret from the scheme's secret distribution.
func (kg *KeyGenerator) GenSecretKey() *SecretKey {
	return kg.ctx.NewSecretKey(kg.secret(kg.ctx.Params.N()))
}

// GenPublicKey samples pk = (-A·s + e, A) over Q.
func (kg *KeyGenerator) GenPublicKey(sk *SecretKey) *PublicKey {
	rq := kg.ctx.RQ
	level := rq.MaxLevel()
	a := UniformPoly(kg.rng, rq, level)
	e := SignedPoly(rq, level, kg.noise(kg.ctx.Params.N()), kg.ctx.Params.T)
	b := rq.NewPoly(level)
	rq.MulPoly(level, a, sk.Q, b) // a·s
	rq.Neg(level, b, b)
	rq.Add(level, b, e, b)
	return &PublicKey{B: b, A: a}
}

// gadgetFactor returns W_g mod the full Q basis as per-channel constants:
// W_g = P · (Q/D_g) · [(Q/D_g)^{-1}]_{D_g}. (W_g ≡ 0 on every P channel.)
func (c *Context) gadgetFactor(g int) []uint64 {
	prod := func(moduli []uint64) *big.Int {
		x := big.NewInt(1)
		for _, q := range moduli {
			x.Mul(x, new(big.Int).SetUint64(q))
		}
		return x
	}
	lo, hi := c.Dec.GroupRange(g, len(c.Params.Q)-1)
	Dg := prod(c.Params.Q[lo:hi])
	Qhat := new(big.Int).Div(prod(c.Params.Q), Dg)
	inv := new(big.Int).ModInverse(new(big.Int).Mod(Qhat, Dg), Dg)
	W := new(big.Int).Mul(prod(c.Params.P), Qhat)
	W.Mul(W, inv)
	out := make([]uint64, len(c.Params.Q))
	tmp := new(big.Int)
	for i, qi := range c.Params.Q {
		out[i] = tmp.Mod(W, new(big.Int).SetUint64(qi)).Uint64()
	}
	return out
}

// GenSwitchingKey generates a key switching sPrime (over Q, coefficient
// domain, full level) to sk.
func (kg *KeyGenerator) GenSwitchingKey(sPrime *ring.Poly, sk *SecretKey) *SwitchingKey {
	ctx := kg.ctx
	rq, rp := ctx.RQ, ctx.RP
	levelQ, levelP := rq.MaxLevel(), rp.MaxLevel()
	swk := &SwitchingKey{}
	for g := range ctx.Dec.Groups {
		aQ := UniformPoly(kg.rng, rq, levelQ)
		aP := UniformPoly(kg.rng, rp, levelP)
		ev := kg.noise(ctx.Params.N())
		eQ := SignedPoly(rq, levelQ, ev, kg.ctx.Params.T)
		eP := SignedPoly(rp, levelP, ev, kg.ctx.Params.T)

		// bQ = -aQ·s + eQ + W_g·s' over Q.
		bQ := rq.NewPoly(levelQ)
		rq.MulPoly(levelQ, aQ, sk.Q, bQ)
		rq.Neg(levelQ, bQ, bQ)
		rq.Add(levelQ, bQ, eQ, bQ)
		w := ctx.gadgetFactor(g)
		ws := rq.NewPoly(levelQ)
		for i := 0; i <= levelQ; i++ {
			rq.SubRings[i].MulScalar(sPrime.Coeffs[i], w[i], ws.Coeffs[i])
		}
		rq.Add(levelQ, bQ, ws, bQ)

		// bP = -aP·s + eP over P (gadget vanishes mod P).
		bP := rp.NewPoly(levelP)
		rp.MulPoly(levelP, aP, sk.P, bP)
		rp.Neg(levelP, bP, bP)
		rp.Add(levelP, bP, eP, bP)

		// Store in NTT domain for direct use in DecompPolyMult.
		rq.NTT(levelQ, bQ)
		rq.NTT(levelQ, aQ)
		rp.NTT(levelP, bP)
		rp.NTT(levelP, aP)
		swk.BQ = append(swk.BQ, bQ)
		swk.AQ = append(swk.AQ, aQ)
		swk.BP = append(swk.BP, bP)
		swk.AP = append(swk.AP, aP)
	}
	return swk
}

// GenRelinKey generates the relinearization key (s² → s).
func (kg *KeyGenerator) GenRelinKey(sk *SecretKey) *SwitchingKey {
	rq := kg.ctx.RQ
	level := rq.MaxLevel()
	s2 := rq.NewPoly(level)
	rq.MulPoly(level, sk.Q, sk.Q, s2)
	return kg.GenSwitchingKey(s2, sk)
}

// GenGaloisKey generates the φ_k(s) → s key for the Galois element k (k odd;
// rotations use RQ.GaloisElementForRotation).
func (kg *KeyGenerator) GenGaloisKey(k uint64, sk *SecretKey) *SwitchingKey {
	rq := kg.ctx.RQ
	level := rq.MaxLevel()
	sRot := rq.NewPoly(level)
	rq.Automorphism(level, sk.Q, k, sRot)
	return kg.GenSwitchingKey(sRot, sk)
}
