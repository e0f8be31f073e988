package rlwe

import (
	"math"
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

// Sampler fills dst with signed coefficients from a scheme's distribution,
// drawing one value per entry in order, so that a stream of draws does not
// depend on how the caller batches it.
type Sampler func(dst []int64)

// Samplers returns the secret (ternary, density 2/3) and error (rounded
// Gaussian of deviation sigma) distributions over rng that CKKS and BGV
// both draw their keys and encryptions from.
func Samplers(rng prng.Source, sigma float64) (secret, noise Sampler) {
	return func(dst []int64) { ternary(rng, dst) },
		func(dst []int64) { gaussian(rng, dst, sigma) }
}

// ternary fills v from {-1,0,1}: 1 when u < 1/3, -1 when 1/3 ≤ u < 2/3,
// else 0, for u uniform in [0, 1). The two comparisons are taken as
// values, not branches, because their outcome is a coin toss per draw.
func ternary(rng prng.Source, v []int64) {
	const density = 2.0 / 3.0
	for i := range v {
		u := rng.Float64()
		var one, nonzero int64
		if u < density/2 {
			one = 1
		}
		if u < density {
			nonzero = 1
		}
		v[i] = 2*one - nonzero
	}
}

// gaussian fills v with Gaussians of deviation sigma, clamped to ±6σ and
// rounded half away from zero: x + ½ with ½ carrying x's sign, truncated.
// Round-to-nearest is symmetric, so this is -⌊-x + ½⌋ for negative x,
// without a branch on the sign.
func gaussian(rng prng.Source, v []int64, sigma float64) {
	for i := range v {
		x := rng.NormFloat64() * sigma
		switch {
		case x > 6*sigma:
			x = 6 * sigma
		case x < -6*sigma:
			x = -6 * sigma
		}
		v[i] = int64(x + math.Copysign(0.5, x))
	}
}

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
// over r at the given level. scale must be nonzero.
func SignedPoly(r *ring.Ring, level int, v []int64, scale uint64) *ring.Poly {
	p := r.NewPoly(level)
	embedSigned(r, level, v, scale, p, false)
	return p
}

// embedSigned writes scale·v into p at levels 0..level, or with add adds it
// to p.
func embedSigned(r *ring.Ring, level int, v []int64, scale uint64, p *ring.Poly, add bool) {
	maxAbs := maxAbs(v)
	for i := 0; i <= level; i++ {
		q, c, s := r.Moduli[i], p.Coeffs[i][:len(v)], int64(scale)
		switch {
		case maxAbs > (q-1)/scale:
			exactSigned(r.SubRings[i], v, scale, c, add)
		case add:
			for j, x := range v {
				c[j] = modmath.AddMod(c[j], signSelect(x*s, q), q)
			}
		default:
			for j, x := range v {
				c[j] = signSelect(x*s, q)
			}
		}
	}
}

// signSelect returns y mod q for |y| < q: y itself, or q + y when y is
// negative, chosen by a mask rather than a branch on the sign.
func signSelect(y int64, q uint64) uint64 {
	return uint64(y) + q&uint64(y>>63)
}

// maxAbs returns the largest |x| over v (2^63 for math.MinInt64). Every
// value the samplers draw has |x·scale| < q_i, which the embedding checks
// once per limb against this bound, not once per coefficient.
func maxAbs(v []int64) uint64 {
	var m uint64
	for _, x := range v {
		sign := uint64(x >> 63)
		if a := uint64(x) ^ sign - sign; a > m {
			m = a
		}
	}
	return m
}

// exactSigned writes (or, with add, adds) scale·v mod q into c through a
// full reduction per coefficient: the path for vectors with a value past
// the sign-select range, which only a caller-supplied vector can hold.
func exactSigned(s *ring.SubRing, v []int64, scale uint64, c []uint64, add bool) {
	sq := s.ReduceWord(scale)
	for j, x := range v {
		y := modmath.MulMod(modmath.ReduceSigned(x, s.Q), sq, s.Q)
		if add {
			y = modmath.AddMod(c[j], y, s.Q)
		}
		c[j] = y
	}
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
	v := make([]int64, kg.ctx.Params.N())
	kg.secret(v)
	return kg.ctx.NewSecretKey(v)
}

// GenPublicKey samples pk = (-A·s + e, A) over Q. A·s is formed against
// the NTT-domain secret, as the switching keys are; the product is exact,
// so the key is the coefficient-domain one.
func (kg *KeyGenerator) GenPublicKey(sk *SecretKey) *PublicKey {
	rq := kg.ctx.RQ
	level := rq.MaxLevel()
	a := UniformPoly(kg.rng, rq, level)
	e := make([]int64, kg.ctx.Params.N())
	kg.noise(e)
	sQ, sP := kg.nttSecret(sk)
	b := rq.Clone(level, a)
	rq.NTT(level, b)
	rq.MulCoeffs(level, b, sQ, b) // a·s
	rq.INTT(level, b)
	rq.Neg(level, b, b)
	embedSigned(rq, level, e, kg.ctx.Params.T, b, true)
	rq.Release(sQ)
	kg.ctx.RP.Release(sP)
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
	sQ, sP := kg.nttSecret(sk)
	swk := kg.genSwitchingKey(sPrime, sQ, sP)
	kg.ctx.RQ.Release(sQ)
	kg.ctx.RP.Release(sP)
	return swk
}

// nttSecret borrows sk's Q and P halves in the NTT domain, transformed once
// for every product of the key they serve. The caller releases both.
func (kg *KeyGenerator) nttSecret(sk *SecretKey) (sQ, sP *ring.Poly) {
	rq, rp := kg.ctx.RQ, kg.ctx.RP
	levelQ, levelP := rq.MaxLevel(), rp.MaxLevel()
	sQ, sP = rq.Borrow(levelQ), rp.Borrow(levelP)
	rq.CopyLevel(levelQ, sk.Q, sQ)
	rp.CopyLevel(levelP, sk.P, sP)
	rq.NTT(levelQ, sQ)
	rp.NTT(levelP, sP)
	return sQ, sP //alchemist:owns the NTT-domain secret is the caller's to release
}

// genSwitchingKey forms every group's key directly in the NTT domain, where
// it is stored: with â = NTT(a),
//
//	B_g = NTT(e_g + W_g·s') − â⊙ŝ over Q,   B_g = NTT(e_g) − â⊙ŝ over P,
//
// so each group costs one forward NTT of a and one of b per basis. sQ and sP
// are the secret's halves in the NTT domain.
func (kg *KeyGenerator) genSwitchingKey(sPrime, sQ, sP *ring.Poly) *SwitchingKey {
	ctx := kg.ctx
	rq, rp := ctx.RQ, ctx.RP
	levelQ, levelP := rq.MaxLevel(), rp.MaxLevel()
	t := ctx.Params.T
	ev := make([]int64, ctx.Params.N())
	asQ, asP := rq.Borrow(levelQ), rp.Borrow(levelP)
	swk := &SwitchingKey{}
	for g := range ctx.Dec.Groups {
		aQ := UniformPoly(kg.rng, rq, levelQ)
		aP := UniformPoly(kg.rng, rp, levelP)
		kg.noise(ev)

		// bQ = NTT(eQ + W_g·s') − âQ⊙ŝ over Q.
		bQ := SignedPoly(rq, levelQ, ev, t)
		w := ctx.gadget[g]
		for i := 0; i <= levelQ; i++ {
			rq.SubRings[i].MulScalarAndAdd(sPrime.Coeffs[i], w[i], bQ.Coeffs[i])
		}
		rq.NTT(levelQ, bQ)
		rq.NTT(levelQ, aQ)
		rq.MulCoeffs(levelQ, aQ, sQ, asQ)
		rq.Sub(levelQ, bQ, asQ, bQ)

		// bP = NTT(eP) − âP⊙ŝ over P (the gadget vanishes mod P).
		bP := SignedPoly(rp, levelP, ev, t)
		rp.NTT(levelP, bP)
		rp.NTT(levelP, aP)
		rp.MulCoeffs(levelP, aP, sP, asP)
		rp.Sub(levelP, bP, asP, bP)

		swk.BQ = append(swk.BQ, bQ)
		swk.AQ = append(swk.AQ, aQ)
		swk.BP = append(swk.BP, bP)
		swk.AP = append(swk.AP, aP)
	}
	rq.Release(asQ)
	rp.Release(asP)
	return swk
}

// GenRelinKey generates the relinearization key (s² → s).
func (kg *KeyGenerator) GenRelinKey(sk *SecretKey) *SwitchingKey {
	rq := kg.ctx.RQ
	level := rq.MaxLevel()
	sQ, sP := kg.nttSecret(sk)
	s2 := rq.NewPoly(level)
	rq.MulCoeffs(level, sQ, sQ, s2)
	rq.INTT(level, s2)
	swk := kg.genSwitchingKey(s2, sQ, sP)
	rq.Release(sQ)
	kg.ctx.RP.Release(sP)
	return swk
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
