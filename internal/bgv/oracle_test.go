package bgv

import (
	"fmt"
	"math/big"
	"testing"

	"alchemist/internal/modmath"
	"alchemist/internal/oracle"
	"alchemist/internal/prng"
	"alchemist/internal/ring"
	"alchemist/internal/rlwe"
)

// gshOracle is the BGV division pair the core's t-scaled kernels replaced,
// kept as their independent reference: ModDown by the big-int CRT of the P
// half, centered and read in [t, Q], plus the Gentry–Halevi–Smart
// correction, and the per-coefficient scalar modulus switch. Both subtract a
// residue δ with δ ≡ x (mod D) and δ ≡ 0 (mod t), but a different one from
// the kernels', so outputs agree up to a small multiple of t per coefficient.
type gshOracle struct {
	ctx   *Context
	pInvQ []uint64 // P^{-1} mod q_i
}

func newGSHOracle(ctx *Context) *gshOracle {
	o := &gshOracle{ctx: ctx}
	for i, qi := range ctx.Params.Q {
		o.pInvQ = append(o.pInvQ, modmath.InvMod(ctx.PModQ[i], qi))
	}
	return o
}

// modDown divides an accumulator over Q·P by P: the subtracted
// δ = centered([x]_P) + P·w with w ≡ -centered([x]_P) (mod t), so
// δ ≡ 0 (mod t) (P ≡ 1 mod t) and the noise grows by at most t.
func (o *gshOracle) modDown(level int, aQ, aP, out *ring.Poly) {
	ctx := o.ctx
	t := ctx.Params.T
	mod := func(x *big.Int, m uint64) uint64 { // Euclidean: [0, m)
		return new(big.Int).Mod(x, new(big.Int).SetUint64(m)).Uint64()
	}
	for k, x := range oracle.Centered(ctx.RP, ctx.RP.MaxLevel(), aP) {
		w := modmath.NegMod(mod(x, t), t)
		for i := 0; i <= level; i++ {
			qi := ctx.RQ.Moduli[i]
			delta := modmath.AddMod(mod(x, qi), modmath.MulMod(w, ctx.PModQ[i], qi), qi)
			out.Coeffs[i][k] = modmath.MulMod(modmath.SubMod(aQ.Coeffs[i][k], delta, qi), o.pInvQ[i], qi)
		}
	}
}

// rescale divides in (levels 0..level) by q_level: the subtracted
// δ = centered([x]_{q_l}) + q_l·w with w ≡ -centered([x]_{q_l}) (mod t).
// δ is formed per channel, so no width of q_l overflows it.
func (o *gshOracle) rescale(level int, in, out *ring.Poly) {
	ctx := o.ctx
	t := int64(ctx.Params.T)
	ql := ctx.RQ.Moduli[level]
	for i := 0; i < level; i++ {
		qi := ctx.RQ.Moduli[i]
		qlModQi := ctx.RQ.SubRings[i].ReduceWord(ql)
		inv := modmath.InvMod(qlModQi, qi)
		for k := range in.Coeffs[i] {
			dc := ring.SignedCoeff(in.Coeffs[level][k], ql)
			w := (-dc) % t
			if w < 0 {
				w += t
			}
			delta := modmath.AddMod(modmath.ReduceSigned(dc, qi), modmath.MulMod(qlModQi, uint64(w), qi), qi)
			out.Coeffs[i][k] = modmath.MulMod(modmath.SubMod(in.Coeffs[i][k], delta, qi), inv, qi)
		}
	}
}

// oracleParams are the two parameter sets the oracle comparison runs on:
// TestParams and 61-bit edge moduli (the widest the ring allows).
func oracleParams(t *testing.T) map[string]Parameters {
	t.Helper()
	edge, err := GenParams(7, 3, 2, 2, 61, 61, 65537)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Parameters{"test": TestParams(), "edge61": edge}
}

// assertMultipleOfT checks that got and want, both over Q at the given
// level, differ coefficient-wise by k·t with the same integer k in every
// channel and |k| ≤ maxK.
func assertMultipleOfT(t *testing.T, ctx *Context, level int, got, want *ring.Poly, maxK int64, what string) {
	t.Helper()
	tm := int64(ctx.Params.T)
	for k := 0; k < ctx.Params.N(); k++ {
		var d0 int64
		for i := 0; i <= level; i++ {
			qi := ctx.RQ.Moduli[i]
			d := ring.SignedCoeff(modmath.SubMod(got.Coeffs[i][k], want.Coeffs[i][k], qi), qi)
			if i == 0 {
				d0 = d
			}
			if d != d0 || d%tm != 0 || d/tm > maxK || d/tm < -maxK {
				t.Fatalf("%s: coefficient %d channel %d differs from the oracle by %d, want k·t with |k| ≤ %d in every channel", what, k, i, d, maxK)
			}
		}
	}
}

// sameSlots checks that two ciphertexts decrypt to the same slots.
func sameSlots(t *testing.T, ctx *Context, dt *Decryptor, level int, b, a, ob, oa *ring.Poly, what string) {
	t.Helper()
	enc := NewEncoder(ctx)
	got := enc.Decode(dt.DecryptPoly(&Ciphertext{B: b, A: a, Level: level}), level)
	want := enc.Decode(dt.DecryptPoly(&Ciphertext{B: ob, A: oa, Level: level}), level)
	assertEq(t, got, want, what)
}

// TestModDownMatchesOracle compares the core's t-scaled ModDown with the
// oracle on random accumulators over Q·P at every level.
func TestModDownMatchesOracle(t *testing.T) {
	for name, params := range oracleParams(t) {
		t.Run(name, func(t *testing.T) {
			ctx, err := NewContext(params)
			if err != nil {
				t.Fatal(err)
			}
			o := newGSHOracle(ctx)
			dt := NewDecryptor(ctx, NewKeyGenerator(ctx, 1).GenSecretKey())
			rq, rp := ctx.RQ, ctx.RP
			maxK := int64(len(params.P)) + 1
			for level := 0; level <= rq.MaxLevel(); level++ {
				rng := prng.New(int64(100 + level))
				var outs, refs [2]*ring.Poly
				for c := range outs {
					aQ := rlwe.UniformPoly(rng, rq, level)
					aP := rlwe.UniformPoly(rng, rp, rp.MaxLevel())
					outs[c], refs[c] = rq.NewPoly(level), rq.NewPoly(level)
					ctx.Ext.ModDown(level, aQ, aP, outs[c])
					o.modDown(level, aQ, aP, refs[c])
					assertMultipleOfT(t, ctx, level, outs[c], refs[c], maxK, fmt.Sprintf("ModDown level %d", level))
				}
				sameSlots(t, ctx, dt, level, outs[0], outs[1], refs[0], refs[1], fmt.Sprintf("ModDown level %d", level))
			}
		})
	}
}

// TestRescaleMatchesOracle compares bgv Rescale with the oracle, on random
// ciphertexts at every level and on a MulRelin product, which must also
// decrypt to the right slots.
func TestRescaleMatchesOracle(t *testing.T) {
	for name, params := range oracleParams(t) {
		t.Run(name, func(t *testing.T) {
			ctx, err := NewContext(params)
			if err != nil {
				t.Fatal(err)
			}
			o := newGSHOracle(ctx)
			kg := NewKeyGenerator(ctx, 2)
			sk := kg.GenSecretKey()
			dt := NewDecryptor(ctx, sk)
			ev := NewEvaluator(ctx, kg.GenRelinKey(sk))
			check := func(ct *Ciphertext, what string) *Ciphertext {
				t.Helper()
				res, err := ev.Rescale(ct)
				if err != nil {
					t.Fatal(err)
				}
				ob, oa := ctx.RQ.NewPoly(res.Level), ctx.RQ.NewPoly(res.Level)
				o.rescale(ct.Level, ct.B, ob)
				o.rescale(ct.Level, ct.A, oa)
				assertMultipleOfT(t, ctx, res.Level, res.B, ob, 1, what)
				assertMultipleOfT(t, ctx, res.Level, res.A, oa, 1, what)
				sameSlots(t, ctx, dt, res.Level, res.B, res.A, ob, oa, what)
				return res
			}
			for level := 1; level <= ctx.RQ.MaxLevel(); level++ {
				rng := prng.New(int64(200 + level))
				ct := &Ciphertext{B: rlwe.UniformPoly(rng, ctx.RQ, level), A: rlwe.UniformPoly(rng, ctx.RQ, level), Level: level}
				check(ct, fmt.Sprintf("Rescale level %d", level))
			}

			n, tm := params.N(), params.T
			enc := NewEncoder(ctx)
			et := NewEncryptor(ctx, kg.GenPublicKey(sk), 3)
			x, y := randSlots(n, tm, 4), randSlots(n, tm, 5)
			encrypt := func(v []uint64) *Ciphertext {
				pt, err := enc.Encode(v, params.MaxLevel())
				if err != nil {
					t.Fatal(err)
				}
				return et.Encrypt(pt, params.MaxLevel())
			}
			prod, err := ev.MulRelin(encrypt(x), encrypt(y))
			if err != nil {
				t.Fatal(err)
			}
			res := check(prod, "Rescale of a product")
			for i := range x {
				x[i] = x[i] * y[i] % tm
			}
			assertEq(t, enc.Decode(dt.DecryptPoly(res), res.Level), x, "Rescale of a product")
		})
	}
}
