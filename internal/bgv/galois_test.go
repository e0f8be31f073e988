package bgv

import (
	"testing"

	"alchemist/internal/prng"
)

// TestApplyGaloisExactModT: ApplyGalois must decrypt to exactly the
// automorphism of the plaintext modulo t — BGV arithmetic is exact, so any
// drift in the fused keyswitch or the t-correction shows up here.
func TestApplyGaloisExactModT(t *testing.T) {
	ctx, err := NewContext(TestParams())
	if err != nil {
		t.Fatal(err)
	}
	kg := NewKeyGenerator(ctx, 21)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	enc := NewEncoder(ctx)
	encr := NewEncryptor(ctx, pk, 22)
	dec := NewDecryptor(ctx, sk)
	ev := NewEvaluator(ctx, nil)

	rng := prng.New(23)
	n := ctx.Params.N()
	slots := make([]uint64, n)
	for i := range slots {
		slots[i] = prng.UniformMod(rng, ctx.Params.T)
	}
	level := ctx.Params.MaxLevel()
	pt, err := enc.Encode(slots, level)
	if err != nil {
		t.Fatal(err)
	}
	ct := encr.Encrypt(pt, level)

	for _, k := range []uint64{ctx.RQ.GaloisElementForRotation(1),
		ctx.RQ.GaloisElementForRotation(3), ctx.RQ.GaloisElementConjugate()} {
		gk := kg.GenGaloisKey(k, sk)
		rot, err := ev.ApplyGalois(ct, k, gk)
		if err != nil {
			t.Fatal(err)
		}
		got := enc.Decode(dec.DecryptPoly(rot), level)
		// Expected: the automorphism applied to the plaintext directly.
		ptRot := ctx.RQ.NewPoly(level)
		ctx.RQ.Automorphism(level, pt, k, ptRot)
		want := enc.Decode(ptRot, level)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("k=%d slot %d: got %d want %d (mod t drift)", k, j, got[j], want[j])
			}
		}
	}
}

// TestRotateRowsComposes: rotating by 1 twice equals rotating by 2 — the
// Galois action composes, and every step is exact mod t.
func TestRotateRowsComposes(t *testing.T) {
	ctx, err := NewContext(TestParams())
	if err != nil {
		t.Fatal(err)
	}
	kg := NewKeyGenerator(ctx, 31)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	enc := NewEncoder(ctx)
	encr := NewEncryptor(ctx, pk, 32)
	dec := NewDecryptor(ctx, sk)
	ev := NewEvaluator(ctx, nil)

	gk1 := kg.GenGaloisKey(ctx.RQ.GaloisElementForRotation(1), sk)
	gk2 := kg.GenGaloisKey(ctx.RQ.GaloisElementForRotation(2), sk)

	rng := prng.New(33)
	n := ctx.Params.N()
	slots := make([]uint64, n)
	for i := range slots {
		slots[i] = prng.UniformMod(rng, ctx.Params.T)
	}
	level := ctx.Params.MaxLevel()
	pt, err := enc.Encode(slots, level)
	if err != nil {
		t.Fatal(err)
	}
	ct := encr.Encrypt(pt, level)

	r1, err := ev.RotateRows(ct, 1, gk1)
	if err != nil {
		t.Fatal(err)
	}
	r11, err := ev.RotateRows(r1, 1, gk1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ev.RotateRows(ct, 2, gk2)
	if err != nil {
		t.Fatal(err)
	}
	got := enc.Decode(dec.DecryptPoly(r11), level)
	want := enc.Decode(dec.DecryptPoly(r2), level)
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("slot %d: rotate(1)∘rotate(1)=%d but rotate(2)=%d", j, got[j], want[j])
		}
	}
}
