// Package bgv implements the BGV leveled arithmetic FHE scheme (the
// modulus-switching sibling of BFV, the paper's other "arithmetic FHE"
// example) on the same RNS/NTT substrate as CKKS. Messages are vectors over
// Z_t packed into slots via the negacyclic NTT modulo t; homomorphic
// arithmetic is exact modulo t.
//
// The hybrid (dnum) key switching is the RLWE core CKKS also runs
// (internal/rlwe). BGV scales every ciphertext and key error by t and binds
// the core to a t-exact ModDown (an exact centered conversion plus the BGV
// modulus-switch correction), and its rescale is t-exact the same way, so
// noise management never perturbs the plaintext.
package bgv

import (
	"fmt"
	"math/big"

	"alchemist/internal/modmath"
	"alchemist/internal/prng"
	"alchemist/internal/ring"
	"alchemist/internal/rlwe"
)

// Parameters describes a BGV instance.
type Parameters struct {
	LogN  int
	T     uint64   // plaintext modulus: prime with t ≡ 1 (mod 2N)
	Q     []uint64 // ciphertext chain; every q_i ≡ 1 (mod 2N·t)
	P     []uint64 // special moduli;   every p_j ≡ 1 (mod 2N·t)
	Dnum  int
	Sigma float64
}

// N returns the ring degree.
func (p Parameters) N() int { return 1 << p.LogN }

// MaxLevel returns the top level.
func (p Parameters) MaxLevel() int { return len(p.Q) - 1 }

// Alpha returns the digit-group width.
func (p Parameters) Alpha() int { return (len(p.Q) + p.Dnum - 1) / p.Dnum }

// Validate checks structural consistency.
func (p Parameters) Validate() error {
	if p.LogN < 3 || p.LogN > 17 {
		return fmt.Errorf("bgv: LogN out of range")
	}
	// 2N is a power of two, so t ≡ 1 (mod 2N) reduces to a mask.
	if !modmath.IsPrime(p.T) || (p.T-1)&uint64(2*p.N()-1) != 0 {
		return fmt.Errorf("bgv: t=%d must be a prime ≡ 1 mod 2N", p.T)
	}
	bt := modmath.NewBarrett(p.T)
	for _, q := range append(append([]uint64{}, p.Q...), p.P...) {
		if bt.ReduceWord(q-1) != 0 {
			return fmt.Errorf("bgv: modulus %d is not ≡ 1 mod t", q)
		}
	}
	if p.Dnum < 1 || p.Dnum > len(p.Q) {
		return fmt.Errorf("bgv: bad Dnum")
	}
	if len(p.P) == 0 {
		return fmt.Errorf("bgv: need special moduli")
	}
	return nil
}

// GenParams generates a BGV parameter set: `levels`+1 chain primes and k
// special primes of the given sizes, all ≡ 1 (mod 2N·t).
func GenParams(logN, levels, dnum, k int, qBits, pBits uint64, t uint64) (Parameters, error) {
	n2t := uint64(2) << uint(logN)
	n2t *= t
	need := map[uint64]int{qBits: levels + 1}
	need[pBits] += k
	pools := map[uint64][]uint64{}
	for bits, count := range need {
		ps, err := modmath.GenerateNTTPrimes(bits, n2t, count)
		if err != nil {
			return Parameters{}, err
		}
		pools[bits] = ps
	}
	q := pools[qBits][:levels+1]
	pools[qBits] = pools[qBits][levels+1:]
	p := pools[pBits][:k]
	params := Parameters{LogN: logN, T: t, Q: q, P: p, Dnum: dnum, Sigma: 3.2}
	return params, params.Validate()
}

// TestParams returns a fast functional set: N=2^7, t=65537, 5 levels,
// per-prime digits (alpha=1) so P comfortably dominates the key-switch
// noise. Panics if the fixed generation recipe fails (it cannot, short of a
// regression in GenParams).
func TestParams() Parameters {
	p, err := GenParams(7, 4, 5, 2, 45, 46, 65537)
	if err != nil {
		panic(err)
	}
	return p
}

// Context carries the shared RLWE core (rings, converters, keyswitch
// tables; see internal/rlwe) for a BGV parameter set, bound to the t-exact
// ModDown, plus the plaintext ring.
type Context struct {
	*rlwe.Context
	Params Parameters
	RT     *ring.SubRing // plaintext ring Z_t[X]/(X^N+1) for slot packing

	// pToQT converts the special basis P into [t, q_0, q_1, …] so the
	// t-corrected ModDown can read the centered value modulo t.
	pToQT *ring.BasisConverter
	pInvQ []uint64 // P^{-1} mod q_i

	// scratch recycles the t-corrected ModDown conversion buffers, whose
	// [t, q_0..q_level] shape fits neither ring's polynomial arena.
	scratch ring.BufPool
}

// NewContext instantiates a context.
func NewContext(params Parameters) (*Context, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	rt, err := ring.NewSubRing(params.N(), params.T)
	if err != nil {
		return nil, err
	}
	ctx := &Context{Params: params, RT: rt,
		pToQT: ring.NewBasisConverter(params.P, append([]uint64{params.T}, params.Q...))}
	// The core calls modDownT only after construction, by when ctx is whole.
	core, err := rlwe.NewContext(rlwe.Parameters{LogN: params.LogN, Q: params.Q, P: params.P, Dnum: params.Dnum}, ctx.modDownT)
	if err != nil {
		return nil, err
	}
	ctx.Context = core
	for i, qi := range params.Q {
		ctx.pInvQ = append(ctx.pInvQ, modmath.InvMod(core.PModQ[i], qi))
	}
	return ctx, nil
}

// Encoder packs Z_t vectors into plaintext polynomials via the NTT over t.
type Encoder struct {
	ctx *Context
}

// NewEncoder returns an encoder.
func NewEncoder(ctx *Context) *Encoder { return &Encoder{ctx: ctx} }

// Encode maps a slot vector (values mod t, length ≤ N) to a plaintext poly
// over Q at the given level, with centered coefficient lift.
func (e *Encoder) Encode(slots []uint64, level int) (*ring.Poly, error) {
	n := e.ctx.Params.N()
	if len(slots) > n {
		return nil, fmt.Errorf("bgv: %d values exceed %d slots", len(slots), n)
	}
	t := e.ctx.Params.T
	coeffs := make([]uint64, n)
	for i, v := range slots {
		coeffs[i] = e.ctx.RT.ReduceWord(v)
	}
	e.ctx.RT.INTT(coeffs)
	p := e.ctx.RQ.NewPoly(level)
	for j := 0; j < n; j++ {
		c := ring.SignedCoeff(coeffs[j], t) // centered lift
		for i := 0; i <= level; i++ {
			qi := e.ctx.RQ.Moduli[i]
			if c >= 0 {
				p.Coeffs[i][j] = uint64(c)
			} else {
				p.Coeffs[i][j] = qi - uint64(-c)
			}
		}
	}
	return p, nil
}

// Decode recovers the slot vector from a plaintext poly at the given level
// (coefficients are CRT-reconstructed, centered and reduced mod t).
func (e *Encoder) Decode(p *ring.Poly, level int) []uint64 {
	n := e.ctx.Params.N()
	t := e.ctx.Params.T
	moduli := e.ctx.RQ.Moduli[:level+1]
	q := e.ctx.RQ.Modulus(level)
	half := new(big.Int).Rsh(q, 1)
	tb := new(big.Int).SetUint64(t)
	coeffs := make([]uint64, n)
	res := make([]uint64, level+1)
	for j := 0; j < n; j++ {
		for i := 0; i <= level; i++ {
			res[i] = p.Coeffs[i][j]
		}
		x := modmath.CRTReconstruct(res, moduli)
		if x.Cmp(half) > 0 {
			x.Sub(x, q)
		}
		x.Mod(x, tb)
		if x.Sign() < 0 {
			x.Add(x, tb)
		}
		coeffs[j] = x.Uint64()
	}
	e.ctx.RT.NTT(coeffs)
	return coeffs
}

// Keys ------------------------------------------------------------------

// The key types and the hybrid gadget key generation are the shared RLWE
// core's (internal/rlwe). BGV keys scale every error by t, so that
// keyswitching adds only multiples of t to the plaintext.
type (
	SecretKey    = rlwe.SecretKey
	PublicKey    = rlwe.PublicKey
	SwitchingKey = rlwe.SwitchingKey
	KeyGenerator = rlwe.KeyGenerator
)

// NewKeyGenerator returns a deterministic generator over BGV's secret and
// t-scaled error distributions.
func NewKeyGenerator(ctx *Context, seed int64) *KeyGenerator {
	rng := prng.New(seed)
	secret, noise := samplers(rng, ctx.Params.Sigma)
	return rlwe.NewKeyGenerator(ctx.Context, rng, secret, noise, ctx.Params.T)
}

// samplers returns BGV's secret (uniform ternary) and error (truncated
// Gaussian of deviation sigma) distributions over rng: the pair both key
// generation and encryption draw from. The core scales the errors by t.
func samplers(rng prng.Source, sigma float64) (secret, noise rlwe.Sampler) {
	return func(n int) []int64 { return signedTernary(rng, n) },
		func(n int) []int64 { return gaussian(rng, n, sigma) }
}

func signedTernary(rng prng.Source, n int) []int64 {
	v := make([]int64, n)
	for i := range v {
		switch rng.Intn(3) {
		case 0:
			v[i] = 1
		case 1:
			v[i] = -1
		}
	}
	return v
}

func gaussian(rng prng.Source, n int, sigma float64) []int64 {
	v := make([]int64, n)
	for i := range v {
		x := rng.NormFloat64() * sigma
		if x > 19 {
			x = 19
		} else if x < -19 {
			x = -19
		}
		v[i] = int64(x)
	}
	return v
}
