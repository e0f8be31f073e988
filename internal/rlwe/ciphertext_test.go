package rlwe_test

import (
	"bytes"
	"fmt"
	"math"
	"math/big"
	"sync"
	"testing"

	"alchemist/internal/bgv"
	"alchemist/internal/ckks"
	"alchemist/internal/modmath"
	"alchemist/internal/oracle"
	"alchemist/internal/prng"
	"alchemist/internal/ring"
	"alchemist/internal/rlwe"
)

// TestMulPlainMatchesMulPoly pins MulPlain, which transforms pt once for
// both components, byte-identical to one MulPoly per component, under both
// schemes' contexts, at the top level and below it (pt then sits above the
// ciphertext's level).
func TestMulPlainMatchesMulPoly(t *testing.T) {
	for name, f := range map[string]fixture{
		"ckks": ckksFixture(t, ckks.TestParams()),
		"bgv":  bgvFixture(t, bgv.TestParams()),
	} {
		t.Run(name, func(t *testing.T) {
			rq := f.ctx.RQ
			ev := rlwe.NewEvaluator(f.ctx)
			rng := prng.New(26)
			pt := rlwe.UniformPoly(rng, rq, rq.MaxLevel())
			for _, level := range []int{rq.MaxLevel(), 1} {
				ct := rlwe.Ciphertext{B: rlwe.UniformPoly(rng, rq, level), A: rlwe.UniformPoly(rng, rq, level), Level: level}
				got := ev.MulPlain(&ct, pt)
				wantB, wantA := rq.NewPoly(level), rq.NewPoly(level)
				oracle.MulPoly(rq, level, ct.B, pt, wantB)
				oracle.MulPoly(rq, level, ct.A, pt, wantA)
				if got.Level != level || !rq.Equal(level, got.B, wantB) || !rq.Equal(level, got.A, wantA) {
					t.Fatalf("level %d: MulPlain differs from the two-MulPoly product", level)
				}
				rq.Release(got.B)
				rq.Release(got.A)
			}
		})
	}
}

// oracleSignedPoly is the embedding Encrypt used before the sign select:
// one ReduceSigned of x·scale per limb and coefficient.
func oracleSignedPoly(r *ring.Ring, level int, v []int64, scale uint64) *ring.Poly {
	p := r.NewPoly(level)
	for i := 0; i <= level; i++ {
		for j, x := range v {
			p.Coeffs[i][j] = modmath.ReduceSigned(x*int64(scale), r.Moduli[i])
		}
	}
	return p
}

// oracleEncrypt is the MulPoly formulation of Encrypt, the oracle the
// pre-transformed key must match byte for byte: u, e0 and e1 drawn in that
// order and embedded as whole polynomials, and each product through
// MulPoly, which transforms pk and u on every call.
func oracleEncrypt(ctx *rlwe.Context, pk *rlwe.PublicKey, secret, noise rlwe.Sampler, pt *ring.Poly, level int) rlwe.Ciphertext {
	rq, n, t := ctx.RQ, ctx.Params.N(), ctx.Params.T
	draw := func(s rlwe.Sampler, scale uint64) *ring.Poly {
		v := make([]int64, n)
		s(v)
		return oracleSignedPoly(rq, level, v, scale)
	}
	u := draw(secret, 1)
	e0 := draw(noise, t)
	e1 := draw(noise, t)
	ct := rlwe.Ciphertext{B: rq.NewPoly(level), A: rq.NewPoly(level), Level: level}
	oracle.MulPoly(rq, level, pk.B, u, ct.B)
	oracle.MulPoly(rq, level, pk.A, u, ct.A)
	rq.Add(level, ct.B, e0, ct.B)
	rq.Add(level, ct.B, pt, ct.B)
	rq.Add(level, ct.A, e1, ct.A)
	return ct
}

// oracleDecryptPoly is the MulPoly formulation of DecryptPoly: B + A·s with
// the secret transformed on every call.
func oracleDecryptPoly(ctx *rlwe.Context, sk *rlwe.SecretKey, ct *rlwe.Ciphertext) *ring.Poly {
	rq := ctx.RQ
	out := rq.NewPoly(ct.Level)
	oracle.MulPoly(rq, ct.Level, ct.A, sk.Q, out)
	rq.Add(ct.Level, out, ct.B, out)
	return out
}

// testSamplers returns a ternary secret sampler and a noise sampler over
// one stream from seed. Noise draws alternate between magnitudes below 2^12
// and magnitudes below 2^41, log-uniform with a random sign, so each
// encryption embeds e0 by sign select and, where |x·t| can reach q_i, e1
// through the exact path. |x·t| stays below 2^63, where the oracle's int64
// product is exact.
func testSamplers(seed int64) (secret, noise rlwe.Sampler) {
	rng := prng.New(seed)
	wide := false
	return func(dst []int64) {
			for i := range dst {
				dst[i] = int64(rng.Intn(3)) - 1
			}
		}, func(dst []int64) {
			bits := 12
			if wide {
				bits = 41
			}
			wide = !wide
			for i := range dst {
				x := int64(rng.Uint64() >> (64 - rng.Intn(bits+1)))
				if rng.Intn(2) == 0 {
					x = -x
				}
				dst[i] = x
			}
		}
}

// checkEncryptOracle encrypts a random plaintext at every level of the
// fixture's context and compares the ciphertext, and its decryption, with
// the MulPoly oracles.
func (f fixture) checkEncryptOracle(t testing.TB, seed int64, levels []int) {
	t.Helper()
	rq := f.ctx.RQ
	kg := f.newKG(seed)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	secret, noise := testSamplers(seed + 1)
	oSecret, oNoise := testSamplers(seed + 1)
	et := rlwe.NewEncryptor(f.ctx, pk, secret, noise)
	dt := rlwe.NewDecryptor(f.ctx, sk)
	pt := rlwe.UniformPoly(prng.New(seed+2), rq, rq.MaxLevel())
	for _, level := range levels {
		got := et.Encrypt(pt, level)
		want := oracleEncrypt(f.ctx, pk, oSecret, oNoise, pt, level)
		if got.Level != level || !rq.Equal(level, got.B, want.B) || !rq.Equal(level, got.A, want.A) {
			t.Fatalf("seed %d level %d: Encrypt differs from the MulPoly oracle", seed, level)
		}
		if !rq.Equal(level, dt.DecryptPoly(&got), oracleDecryptPoly(f.ctx, sk, &got)) {
			t.Fatalf("seed %d level %d: DecryptPoly differs from the MulPoly oracle", seed, level)
		}
		rq.Release(got.B)
		rq.Release(got.A)
	}
}

// allLevels lists 0..max.
func allLevels(max int) []int {
	levels := make([]int, max+1)
	for l := range levels {
		levels[l] = l
	}
	return levels
}

// TestEncryptMatchesMulPolyOracle pins Encrypt, which transforms u once and
// multiplies it by the pre-transformed public key, and DecryptPoly, which
// holds the secret transformed, byte-identical to the MulPoly formulation
// at every level: for t = 1 (CKKS) and t = 65537 (BGV), at TestParams and
// at near-2^61 edge moduli.
func TestEncryptMatchesMulPolyOracle(t *testing.T) {
	for name, f := range map[string]fixture{
		"ckks":      ckksFixture(t, ckks.TestParams()),
		"bgv":       bgvFixture(t, bgv.TestParams()),
		"ckks-edge": ckksFixture(t, ckksEdgeParams(t, 2)),
		"bgv-edge":  bgvFixture(t, bgvEdgeParams(t, 2)),
	} {
		t.Run(name, func(t *testing.T) {
			f.checkEncryptOracle(t, 31, allLevels(f.ctx.RQ.MaxLevel()))
		})
	}
}

// TestDecryptorConcurrent shares one Decryptor across goroutines (run it
// under -race): its transformed secret is read-only, so every caller gets
// the oracle's bytes.
func TestDecryptorConcurrent(t *testing.T) {
	f := bgvFixture(t, bgv.TestParams())
	rq := f.ctx.RQ
	kg := f.newKG(41)
	sk := kg.GenSecretKey()
	dt := rlwe.NewDecryptor(f.ctx, sk)
	rng := prng.New(42)
	level := rq.MaxLevel()
	ct := rlwe.Ciphertext{B: rlwe.UniformPoly(rng, rq, level), A: rlwe.UniformPoly(rng, rq, level), Level: level}
	want := oracleDecryptPoly(f.ctx, sk, &ct)
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if !rq.Equal(level, dt.DecryptPoly(&ct), want) {
					errs <- "concurrent DecryptPoly differs from the oracle"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// FuzzEncryptMatchesOracle drives Encrypt and DecryptPoly against the
// MulPoly oracles over key and sample seeds, levels and t (1 or 65537), on
// ordinary and near-2^61 edge moduli.
func FuzzEncryptMatchesOracle(f *testing.F) {
	f.Add(int64(1), uint8(0), false, false)
	f.Add(int64(7), uint8(2), true, false)
	f.Add(int64(11), uint8(3), false, true)
	f.Add(int64(13), uint8(1), true, true)
	f.Fuzz(func(t *testing.T, seed int64, levelSeed uint8, exact, edge bool) {
		fx := fuzzFixture(t, fuzzKey{dnum: 2, edge: edge, exact: exact})
		fx.checkEncryptOracle(t, seed, []int{int(levelSeed) % (fx.ctx.RQ.MaxLevel() + 1)})
	})
}

// TestSignedPolyEdgeModuli pins SignedPoly against a big-integer oracle at
// near-2^61 moduli, on the values around the sign-select range: ±(q−1),
// ±q, ±(q+1), the extreme int64 values and the range bound ⌊(q−1)/scale⌋
// of each limb, at scale 1 and at scale t = 65537. A vector with any value
// past the range takes the exact path on that limb; each value is also
// embedded alone, so that both paths see it.
func TestSignedPolyEdgeModuli(t *testing.T) {
	const n = 16
	moduli, err := modmath.GenerateNTTPrimes(61, 2*n, 2)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ring.NewRing(n, moduli)
	if err != nil {
		t.Fatal(err)
	}
	for _, scale := range []uint64{1, 65537} {
		t.Run(fmt.Sprint("scale=", scale), func(t *testing.T) {
			vals := []int64{0, 1, -1, math.MaxInt64, math.MinInt64 + 1, math.MinInt64}
			for _, q := range moduli {
				b := int64((q - 1) / scale)
				for _, x := range []int64{int64(q) - 1, int64(q), int64(q) + 1, b, b + 1} {
					vals = append(vals, x, -x)
				}
			}
			check := func(v []int64) {
				t.Helper()
				v = append(v, make([]int64, n-len(v))...)
				p := rlwe.SignedPoly(r, 1, v, scale)
				for i, q := range moduli {
					bq := new(big.Int).SetUint64(q)
					for j, x := range v {
						want := new(big.Int).Mul(big.NewInt(x), new(big.Int).SetUint64(scale))
						want.Mod(want, bq)
						if got := p.Coeffs[i][j]; got != want.Uint64() {
							t.Fatalf("q=%d: %d embeds to %d, want %d", q, x, got, want)
						}
					}
				}
			}
			for len(vals) > 0 {
				k := min(n, len(vals))
				check(append([]int64(nil), vals[:k]...))
				for _, x := range vals[:k] {
					check([]int64{x})
				}
				vals = vals[k:]
			}
		})
	}
}

// zeroPoly returns a zero polynomial with the given channel count and degree,
// independent of any ring.
func zeroPoly(channels, n int) *ring.Poly {
	p := &ring.Poly{Coeffs: make([][]uint64, channels)}
	for i := range p.Coeffs {
		p.Coeffs[i] = make([]uint64, n)
	}
	return p
}

// FuzzCiphertextUnmarshal drives the shared ciphertext decoder with hostile
// bytes under both metadata widths: none (BGV, BFV) and the one scale word
// (CKKS). An accepted input must have B, A and Level agreeing in level and
// ring degree, and must re-marshal to the identical bytes.
func FuzzCiphertextUnmarshal(f *testing.F) {
	valid := rlwe.Ciphertext{B: zeroPoly(2, 16), A: zeroPoly(2, 16), Level: 1}
	withScale, err := valid.MarshalMeta([]uint64{1 << 40})
	if err != nil {
		f.Fatal(err)
	}
	bare, err := valid.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	mixed, err := (&rlwe.Ciphertext{B: zeroPoly(2, 8), A: zeroPoly(2, 16), Level: 1}).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(withScale, true)
	f.Add([]byte{}, true)
	f.Add(withScale[:20], true)
	f.Add(bare, false)
	f.Add(mixed, false)
	f.Fuzz(func(t *testing.T, data []byte, scaled bool) {
		var meta []uint64
		if scaled {
			meta = make([]uint64, 1)
		}
		var ct rlwe.Ciphertext
		if err := ct.UnmarshalMeta(data, meta); err != nil {
			return
		}
		if ct.B.Level() != ct.Level || ct.A.Level() != ct.Level {
			t.Fatalf("accepted level %d with poly channels (%d, %d)", ct.Level, ct.B.Level(), ct.A.Level())
		}
		for i := 0; i <= ct.Level; i++ {
			if len(ct.B.Coeffs[i]) != len(ct.A.Coeffs[0]) || len(ct.A.Coeffs[i]) != len(ct.A.Coeffs[0]) {
				t.Fatalf("accepted channel %d with degrees %d and %d", i, len(ct.B.Coeffs[i]), len(ct.A.Coeffs[i]))
			}
		}
		again, err := ct.MarshalMeta(meta)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatal("accepted input does not re-marshal to the same bytes")
		}
	})
}
