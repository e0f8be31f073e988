package ckks

import (
	"math"
	"math/rand"
	"testing"
)

func TestChebyshevFitAccuracy(t *testing.T) {
	// The sine approximation used by EvalMod must be accurate over the full
	// range before we trust it homomorphically.
	r := 6.5
	f := func(u float64) float64 { return math.Sin(2*math.Pi*r*u) / (2 * math.Pi) }
	coeffs := ChebyshevFit(f, 63)
	for u := -1.0; u <= 1.0; u += 1.0 / 512 {
		got := ChebyshevEval(coeffs, u)
		if d := math.Abs(got - f(u)); d > 1e-4 {
			t.Fatalf("Chebyshev fit error %.2e at u=%v", d, u)
		}
	}
	// Sine is odd: even coefficients must vanish.
	for k := 0; k < len(coeffs); k += 2 {
		if math.Abs(coeffs[k]) > 1e-12 {
			t.Fatalf("even coefficient c_%d = %v should vanish", k, coeffs[k])
		}
	}
}

func bootstrapContext(t testing.TB) (*Context, *KeyGenerator, *SecretKey) {
	t.Helper()
	// Toy bootstrap parameters: N=2^6, 15 moduli of ~45 bits (scale 2^45),
	// dnum=8 so each digit group (α=2 primes ≈ 2^90) stays below
	// P ≈ 2^138, h=4-sparse secret. Zero security — functional pipeline only.
	params, err := GenParams(6, 14, 8, 3, 45, 45, 46)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(params)
	if err != nil {
		t.Fatal(err)
	}
	kg := NewKeyGenerator(ctx, 4242)
	sk := kg.GenSecretKeySparse(4)
	return ctx, kg, sk
}

func TestEvalChebyshevHomomorphic(t *testing.T) {
	ctx, kg, sk := bootstrapContext(t)
	params := ctx.Params
	enc := NewEncoder(ctx)
	pk := kg.GenPublicKey(sk)
	eks := kg.GenEvaluationKeySet(sk, nil, false)
	ev := NewEvaluator(ctx, eks)
	et := NewEncryptor(ctx, pk, 11)
	dt := NewDecryptor(ctx, sk)

	// Evaluate a degree-15 Chebyshev series of exp(u)/3 homomorphically.
	f := func(u float64) float64 { return math.Exp(u) / 3 }
	coeffs := ChebyshevFit(f, 15)
	rng := rand.New(rand.NewSource(12))
	z := make([]complex128, params.Slots())
	for i := range z {
		z[i] = complex(rng.Float64()*2-1, 0)
	}
	level := params.MaxLevel()
	pt, _ := enc.Encode(z, level, params.Scale)
	ct := et.Encrypt(pt, level, params.Scale)

	res, err := ev.EvalChebyshev(ct, coeffs, enc)
	if err != nil {
		t.Fatal(err)
	}
	got := enc.Decode(dt.DecryptPoly(res), res.Level, res.Scale)
	for i := range z {
		want := f(real(z[i]))
		if d := math.Abs(real(got[i]) - want); d > 1e-3 {
			t.Fatalf("slot %d: cheb(%v) = %v want %v", i, real(z[i]), real(got[i]), want)
		}
	}
}

func TestSecretKeySparsity(t *testing.T) {
	ctx, kg, sk := bootstrapContext(t)
	count := 0
	q0 := ctx.Params.Q[0]
	for j := 0; j < ctx.Params.N(); j++ {
		if sk.Q.Coeffs[0][j] != 0 {
			count++
			v := sk.Q.Coeffs[0][j]
			if v != 1 && v != q0-1 {
				t.Fatalf("sparse key coefficient %d not ternary", v)
			}
		}
	}
	if count != 4 {
		t.Fatalf("sparse key has %d non-zeros, want 4", count)
	}
	_ = kg
}

func TestBootstrapRefreshesCiphertext(t *testing.T) {
	ctx, kg, sk := bootstrapContext(t)
	params := ctx.Params
	bt, err := NewBootstrapper(ctx, kg, sk, DefaultBootstrapParams())
	if err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder(ctx)
	pk := kg.GenPublicKey(sk)
	et := NewEncryptor(ctx, pk, 13)
	dt := NewDecryptor(ctx, sk)

	rng := rand.New(rand.NewSource(14))
	z := make([]complex128, params.Slots())
	for i := range z {
		z[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
	}
	// Encrypt at level 0 with a message scale well below q0.
	msgScale := math.Exp2(34)
	pt, err := enc.Encode(z, 0, msgScale)
	if err != nil {
		t.Fatal(err)
	}
	ct := et.Encrypt(pt, 0, msgScale)

	out, err := bt.Bootstrap(ct)
	if err != nil {
		t.Fatal(err)
	}
	if out.Level < 1 {
		t.Fatalf("bootstrap must recover usable levels, got %d", out.Level)
	}
	got := enc.Decode(dt.DecryptPoly(out), out.Level, out.Scale)
	var worst float64
	for i := range z {
		re := math.Abs(real(got[i]) - real(z[i]))
		im := math.Abs(imag(got[i]) - imag(z[i]))
		if re > worst {
			worst = re
		}
		if im > worst {
			worst = im
		}
	}
	if worst > 0.02 {
		t.Fatalf("bootstrap error %.4f exceeds tolerance", worst)
	}
	t.Logf("bootstrap: level 0 -> %d, max slot error %.2e", out.Level, worst)

	// The refreshed ciphertext must support further computation.
	ev := bt.Evaluator()
	sq, err := ev.MulRelin(out, out)
	if err != nil {
		t.Fatal(err)
	}
	sq, err = ev.Rescale(sq)
	if err != nil {
		t.Fatal(err)
	}
	got2 := enc.Decode(dt.DecryptPoly(sq), sq.Level, sq.Scale)
	for i := range z {
		want := z[i] * z[i]
		d := got2[i] - want
		if math.Abs(real(d)) > 0.05 || math.Abs(imag(d)) > 0.05 {
			t.Fatalf("post-bootstrap square wrong at %d: got %v want %v", i, got2[i], want)
		}
	}
}

func TestBootstrapRejectsWrongLevel(t *testing.T) {
	ctx, kg, sk := bootstrapContext(t)
	bt, err := NewBootstrapper(ctx, kg, sk, DefaultBootstrapParams())
	if err != nil {
		t.Fatal(err)
	}
	bad := newCt(ctx.RQ.NewPoly(2), ctx.RQ.NewPoly(2), 2, ctx.Params.Scale)
	if _, err := bt.Bootstrap(bad); err == nil {
		t.Fatal("expected level error")
	}
	if _, err := NewBootstrapper(ctx, kg, sk, BootstrapParams{SineDegree: 8, K: 6}); err == nil {
		t.Fatal("expected degree validation error")
	}
}
