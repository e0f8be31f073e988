package rlwe_test

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"alchemist/internal/bgv"
	"alchemist/internal/ckks"
	"alchemist/internal/modmath"
	"alchemist/internal/prng"
	"alchemist/internal/ring"
	"alchemist/internal/rlwe"
)

// Fused-vs-eager equality: KeySwitchFused must be BIT-identical to the eager
// per-group reference on every input — the lazy accumulation, the dual
// digit-batched conversion and the identity-channel copies all compute the
// same fully reduced residues. Each check runs for both schemes: CKKS's
// plain division by P (t = 1) and BGV's t-scaled one.

// referenceKeySwitch is the eager hybrid keyswitch the fused path replaced:
// per digit group a ModUp (Bconv to Q and to P), a forward NTT and a
// reduce-per-term DecompPolyMult accumulation against the evk, then the
// inverse NTTs and the eager ModDown. It is the oracle, not a production
// path.
func referenceKeySwitch(ctx *rlwe.Context, level int, c *ring.Poly, swk *rlwe.SwitchingKey) (*ring.Poly, *ring.Poly) {
	rq, rp := ctx.RQ, ctx.RP
	levelP := rp.MaxLevel()
	accBQ, accAQ := rq.NewPoly(level), rq.NewPoly(level) // NTT domain accumulators
	accBP, accAP := rp.NewPoly(levelP), rp.NewPoly(levelP)
	dQ, dP := rq.NewPoly(level), rp.NewPoly(levelP)
	for g := 0; g < ctx.Dec.GroupsAt(level); g++ {
		lo, hi := ctx.Dec.GroupRange(g, level)
		digits := c.Coeffs[lo:hi] // residues of digit group g (coeff domain)
		// ModUp: extend the digit to the full Q_level ∪ P basis. The
		// conversion is exact on the group's own channels (the overshoot
		// u·D_g vanishes mod q_i | D_g), so converting everywhere is safe.
		ctx.Dec.Groups[g].ToQ.ConvertN(hi-lo-1, digits, dQ.Coeffs, level+1)
		ctx.Dec.Groups[g].ToP.ConvertN(hi-lo-1, digits, dP.Coeffs, len(ctx.Dec.Groups[g].ToP.Dst))
		rq.NTT(level, dQ)
		rp.NTT(levelP, dP)
		rq.MulCoeffsAndAdd(level, dQ, swk.BQ[g], accBQ)
		rq.MulCoeffsAndAdd(level, dQ, swk.AQ[g], accAQ)
		rp.MulCoeffsAndAdd(levelP, dP, swk.BP[g], accBP)
		rp.MulCoeffsAndAdd(levelP, dP, swk.AP[g], accAP)
	}
	rq.INTT(level, accBQ)
	rq.INTT(level, accAQ)
	rp.INTT(levelP, accBP)
	rp.INTT(levelP, accAP)
	outB, outA := rq.NewPoly(level), rq.NewPoly(level)
	modDown := eagerModDown(ctx)
	modDown(level, accBQ, accBP, outB)
	modDown(level, accAQ, accAP, outA)
	return outB, outA
}

// eagerModDown is the division by P written out eagerly through the
// identity ModDown_t(x) = t·ModDown_1(t⁻¹·x) mod Q, with t the context's
// plaintext modulus: x is scaled by t⁻¹ on every channel of Q·P, its P half
// goes through the reduce-per-term basis conversion (ConvertN) into Q, the
// textbook subtract-and-scale by P⁻¹ mod q_i follows, and the result is
// scaled back by t. It is built from exported pieces only and shares none of
// the kernel's folded constants, so for CKKS (t = 1) and BGV alike the
// comparison covers the whole lazy pipeline.
func eagerModDown(ctx *rlwe.Context) func(level int, aQ, aP, out *ring.Poly) {
	q, p, t := ctx.Params.Q, ctx.Params.P, ctx.Params.T
	pToQ := ring.NewBasisConverter(p, q)
	pInv, tQ, tInvQ := make([]uint64, len(q)), make([]uint64, len(q)), make([]uint64, len(q))
	for i, qi := range q {
		pInv[i] = modmath.InvMod(ctx.PModQ[i], qi)
		tQ[i] = ctx.RQ.SubRings[i].ReduceWord(t)
		tInvQ[i] = modmath.InvMod(tQ[i], qi)
	}
	tInvP := make([]uint64, len(p))
	for j, pj := range p {
		tInvP[j] = modmath.InvMod(ctx.RP.SubRings[j].ReduceWord(t), pj)
	}
	return func(level int, aQ, aP, out *ring.Poly) {
		yP := ctx.RP.NewPoly(len(p) - 1)
		for j, pj := range p {
			for k, x := range aP.Coeffs[j] {
				yP.Coeffs[j][k] = modmath.MulMod(x, tInvP[j], pj)
			}
		}
		conv := ctx.RQ.NewPoly(level)
		pToQ.ConvertN(len(p)-1, yP.Coeffs, conv.Coeffs, level+1)
		for i := 0; i <= level; i++ {
			for k, x := range aQ.Coeffs[i] {
				y := modmath.MulMod(x, tInvQ[i], q[i])
				d := modmath.MulMod(modmath.SubMod(y, conv.Coeffs[i][k], q[i]), pInv[i], q[i])
				out.Coeffs[i][k] = modmath.MulMod(d, tQ[i], q[i])
			}
		}
	}
}

// fixture is one keyed context and the key generator of its scheme.
type fixture struct {
	ctx   *rlwe.Context
	newKG func(seed int64) *rlwe.KeyGenerator
}

func ckksFixture(t testing.TB, params ckks.Parameters) fixture {
	t.Helper()
	ctx, err := ckks.NewContext(params)
	if err != nil {
		t.Fatal(err)
	}
	return fixture{
		ctx:   ctx.Context,
		newKG: func(seed int64) *rlwe.KeyGenerator { return ckks.NewKeyGenerator(ctx, seed).KeyGenerator },
	}
}

func bgvFixture(t testing.TB, params bgv.Parameters) fixture {
	t.Helper()
	ctx, err := bgv.NewContext(params)
	if err != nil {
		t.Fatal(err)
	}
	return fixture{
		ctx:   ctx.Context,
		newKG: func(seed int64) *rlwe.KeyGenerator { return bgv.NewKeyGenerator(ctx, seed) },
	}
}

// checkLevel compares the fused keyswitch with the reference on one random
// input at one level.
func (f fixture) checkLevel(t testing.TB, swk *rlwe.SwitchingKey, level int, seed int64) {
	t.Helper()
	rq := f.ctx.RQ
	c := rlwe.UniformPoly(prng.New(seed), rq, level)
	eagerB, eagerA := referenceKeySwitch(f.ctx, level, c, swk)
	fusedB, fusedA := rlwe.NewEvaluator(f.ctx).KeySwitchFused(level, c, swk)
	if !rq.Equal(level, eagerB, fusedB) || !rq.Equal(level, eagerA, fusedA) {
		t.Fatalf("level %d seed %d: fused keyswitch differs from eager reference", level, seed)
	}
	rq.Release(fusedB)
	rq.Release(fusedA)
}

// check runs checkLevel at every level against a switching key sk2 → sk.
func (f fixture) check(t *testing.T, seed int64) {
	t.Helper()
	kg := f.newKG(seed)
	sk := kg.GenSecretKey()
	sk2 := f.newKG(seed + 1).GenSecretKey()
	swk := kg.GenSwitchingKey(sk2.Q, sk)
	for level := 0; level <= f.ctx.RQ.MaxLevel(); level++ {
		f.checkLevel(t, swk, level, seed+2+int64(level))
	}
}

// ckksEdgeParams builds a CKKS parameter set over near-2^61 primes: the lazy
// accumulators' capacity bound is 8 there, so the auto-flush paths run for
// real.
func ckksEdgeParams(t testing.TB, dnum int) ckks.Parameters {
	t.Helper()
	const logN = 8
	primes, err := modmath.GenerateNTTPrimes(61, uint64(2)<<logN, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Give P the two largest primes so P ≥ every digit group product.
	sort.Slice(primes, func(i, j int) bool { return primes[i] < primes[j] })
	params := ckks.Parameters{LogN: logN, Q: primes[:4], P: primes[4:], Scale: 1 << 40, Dnum: dnum, Sigma: 3.2}
	if err := params.Validate(); err != nil {
		t.Fatal(err)
	}
	return params
}

// bgvEdgeParams is the BGV counterpart: 61-bit primes ≡ 1 (mod 2N·t).
func bgvEdgeParams(t testing.TB, dnum int) bgv.Parameters {
	t.Helper()
	params, err := bgv.GenParams(7, 3, dnum, 2, 61, 61, 65537)
	if err != nil {
		t.Fatal(err)
	}
	return params
}

func TestKeySwitchFusedMatchesEager(t *testing.T) {
	t.Run("ckks", func(t *testing.T) { ckksFixture(t, ckks.TestParams()).check(t, 101) })
	t.Run("bgv", func(t *testing.T) { bgvFixture(t, bgv.TestParams()).check(t, 11) })
}

func TestKeySwitchFusedMatchesEagerEdgeModuli(t *testing.T) {
	t.Run("ckks", func(t *testing.T) { ckksFixture(t, ckksEdgeParams(t, 2)).check(t, 202) })
	t.Run("bgv", func(t *testing.T) { bgvFixture(t, bgvEdgeParams(t, 2)).check(t, 212) })
}

// TestKeySwitchFusedMatchesEagerAcrossDnum sweeps the digit count: every
// dnum changes the group structure, the identity-channel windows and the
// number of lazily accumulated terms.
func TestKeySwitchFusedMatchesEagerAcrossDnum(t *testing.T) {
	dnums := []int{1, 2, 3, 5}
	t.Run("ckks", func(t *testing.T) {
		for _, dnum := range dnums {
			t.Run(fmt.Sprintf("dnum=%d", dnum), func(t *testing.T) {
				// K=4 special primes so P covers even the dnum=1
				// single-group product (~215 bits).
				params, err := ckks.GenParams(9, 4, dnum, 4, 55, 40, 55)
				if err != nil {
					t.Fatal(err)
				}
				ckksFixture(t, params).check(t, 300+int64(dnum))
			})
		}
	})
	t.Run("bgv", func(t *testing.T) {
		for _, dnum := range dnums {
			t.Run(fmt.Sprintf("dnum=%d", dnum), func(t *testing.T) {
				params, err := bgv.GenParams(7, 4, dnum, 5, 45, 46, 65537)
				if err != nil {
					t.Fatal(err)
				}
				bgvFixture(t, params).check(t, 400+int64(dnum))
			})
		}
	})
}

// fuzzFixtures caches one fixture per (dnum, edge, exact) configuration:
// fuzz workers run in parallel and context construction dominates otherwise.
var fuzzFixtures sync.Map

type fuzzKey struct {
	dnum        int
	edge, exact bool
}

func fuzzFixture(t testing.TB, key fuzzKey) fixture {
	if v, ok := fuzzFixtures.Load(key); ok {
		return v.(fixture)
	}
	var f fixture
	switch {
	case key.exact && key.edge:
		f = bgvFixture(t, bgvEdgeParams(t, key.dnum))
	case key.exact:
		params, err := bgv.GenParams(7, 3, key.dnum, 2, 45, 46, 65537)
		if err != nil {
			t.Fatal(err)
		}
		f = bgvFixture(t, params)
	case key.edge:
		f = ckksFixture(t, ckksEdgeParams(t, key.dnum))
	default:
		params, err := ckks.GenParams(7, 3, key.dnum, 2, 45, 40, 45)
		if err != nil {
			t.Fatal(err)
		}
		f = ckksFixture(t, params)
	}
	v, _ := fuzzFixtures.LoadOrStore(key, f)
	return v.(fixture)
}

// FuzzKeySwitchFusedVsEager drives the fused path against the eager
// reference over random inputs, levels and digit counts, on both ordinary
// and near-2^61 edge moduli, under the plain (CKKS) and the t-scaled (BGV)
// ModDown. Any single bit of divergence fails.
func FuzzKeySwitchFusedVsEager(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(1), false, false)
	f.Add(int64(7), uint8(2), uint8(3), false, false)
	f.Add(int64(9), uint8(3), uint8(2), true, false)
	f.Add(int64(42), uint8(1), uint8(2), true, false)
	f.Add(int64(5), uint8(1), uint8(0), false, true)
	f.Add(int64(13), uint8(3), uint8(2), true, true)
	f.Fuzz(func(t *testing.T, seed int64, levelSeed, dnumSeed uint8, edge, exact bool) {
		// Digit counts that keep P ≥ every digit group (CKKS's noise
		// requirement): alpha ≤ 2 for these 4-prime chains.
		dnum := 2 + int(dnumSeed)%3
		if edge {
			dnum = 2 // the edge sets have 2 P primes as wide as the Q primes: alpha must be 2
		}
		fx := fuzzFixture(t, fuzzKey{dnum, edge, exact})
		level := int(levelSeed) % (fx.ctx.RQ.MaxLevel() + 1)
		kg := fx.newKG(seed)
		sk := kg.GenSecretKey()
		swk := kg.GenSwitchingKey(fx.newKG(seed+1).GenSecretKey().Q, sk)
		fx.checkLevel(t, swk, level, seed+2)
	})
}
