package ckks

import (
	"math/cmplx"
	"testing"

	"alchemist/internal/prng"
	"alchemist/internal/rlwe"
)

type testHarness struct {
	ctx *Context
	enc *Encoder
	kg  *KeyGenerator
	sk  *SecretKey
	pk  *PublicKey
	eks *EvaluationKeySet
	et  *Encryptor
	dt  *Decryptor
	ev  *Evaluator
}

func newHarness(t testing.TB, rotations []int) *testHarness {
	t.Helper()
	params := TestParams()
	ctx, err := NewContext(params)
	if err != nil {
		t.Fatal(err)
	}
	h := &testHarness{ctx: ctx, enc: NewEncoder(ctx)}
	h.kg = NewKeyGenerator(ctx, 1001)
	h.sk = h.kg.GenSecretKey()
	h.pk = h.kg.GenPublicKey(h.sk)
	h.eks = h.kg.GenEvaluationKeySet(h.sk, rotations, true)
	h.et = NewEncryptor(ctx, h.pk, 2002)
	h.dt = NewDecryptor(ctx, h.sk)
	h.ev = NewEvaluator(ctx, h.eks)
	return h
}

func (h *testHarness) encrypt(t testing.TB, z []complex128) *Ciphertext {
	t.Helper()
	level := h.ctx.Params.MaxLevel()
	pt, err := h.enc.Encode(z, level, h.ctx.Params.Scale)
	if err != nil {
		t.Fatal(err)
	}
	return h.et.Encrypt(pt, level, h.ctx.Params.Scale)
}

func (h *testHarness) decrypt(ct *Ciphertext) []complex128 {
	pt := h.dt.DecryptPoly(ct)
	return h.enc.Decode(pt, ct.Level, ct.Scale)
}

func TestEncryptDecrypt(t *testing.T) {
	h := newHarness(t, nil)
	z := randomSlots(h.ctx.Params.Slots(), 21, 1.0)
	ct := h.encrypt(t, z)
	got := h.decrypt(ct)
	if e := maxSlotError(z, got); e > 1e-6 {
		t.Fatalf("encrypt/decrypt error %v", e)
	}
}

func TestHomomorphicAddSub(t *testing.T) {
	h := newHarness(t, nil)
	z1 := randomSlots(h.ctx.Params.Slots(), 22, 1.0)
	z2 := randomSlots(h.ctx.Params.Slots(), 23, 1.0)
	ct1, ct2 := h.encrypt(t, z1), h.encrypt(t, z2)

	sum, err := h.ev.Add(ct1, ct2)
	if err != nil {
		t.Fatal(err)
	}
	got := h.decrypt(sum)
	want := make([]complex128, len(z1))
	for i := range want {
		want[i] = z1[i] + z2[i]
	}
	if e := maxSlotError(got, want); e > 1e-6 {
		t.Fatalf("Hadd error %v", e)
	}

	diff, err := h.ev.Sub(ct1, ct2)
	if err != nil {
		t.Fatal(err)
	}
	got = h.decrypt(diff)
	for i := range want {
		want[i] = z1[i] - z2[i]
	}
	if e := maxSlotError(got, want); e > 1e-6 {
		t.Fatalf("Hsub error %v", e)
	}
}

func TestMulPlainAndRescale(t *testing.T) {
	h := newHarness(t, nil)
	z := randomSlots(h.ctx.Params.Slots(), 24, 1.0)
	w := randomSlots(h.ctx.Params.Slots(), 25, 1.0)
	ct := h.encrypt(t, z)
	pt, _ := h.enc.Encode(w, ct.Level, h.ctx.Params.Scale)

	prod := h.ev.MulPlain(ct, pt, h.ctx.Params.Scale)
	res, err := h.ev.Rescale(prod)
	if err != nil {
		t.Fatal(err)
	}
	if res.Level != ct.Level-1 {
		t.Fatalf("rescale did not drop level")
	}
	got := h.decrypt(res)
	want := make([]complex128, len(z))
	for i := range want {
		want[i] = z[i] * w[i]
	}
	if e := maxSlotError(got, want); e > 1e-5 {
		t.Fatalf("Pmult error %v", e)
	}
}

func TestMulRelinAndRescale(t *testing.T) {
	h := newHarness(t, nil)
	z1 := randomSlots(h.ctx.Params.Slots(), 26, 1.0)
	z2 := randomSlots(h.ctx.Params.Slots(), 27, 1.0)
	ct1, ct2 := h.encrypt(t, z1), h.encrypt(t, z2)

	prod, err := h.ev.MulRelin(ct1, ct2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.ev.Rescale(prod)
	if err != nil {
		t.Fatal(err)
	}
	got := h.decrypt(res)
	want := make([]complex128, len(z1))
	for i := range want {
		want[i] = z1[i] * z2[i]
	}
	if e := maxSlotError(got, want); e > 1e-4 {
		t.Fatalf("Cmult error %v", e)
	}
}

func TestMultiplicationDepth(t *testing.T) {
	// Square repeatedly down the modulus chain; values stay in [0,1] so the
	// plaintext cannot blow up while noise accumulates.
	h := newHarness(t, nil)
	n := h.ctx.Params.Slots()
	z := make([]complex128, n)
	for i := range z {
		z[i] = complex(0.9, 0)
	}
	ct := h.encrypt(t, z)
	want := make([]complex128, n)
	copy(want, z)
	for depth := 0; ct.Level > 0; depth++ {
		var err error
		ct, err = h.ev.MulRelin(ct, ct)
		if err != nil {
			t.Fatal(err)
		}
		ct, err = h.ev.Rescale(ct)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			want[i] *= want[i]
		}
		got := h.decrypt(ct)
		if e := maxSlotError(got, want); e > 1e-3 {
			t.Fatalf("depth %d: error %v", depth+1, e)
		}
	}
}

func TestRotation(t *testing.T) {
	rots := []int{1, 2, 7}
	h := newHarness(t, rots)
	n := h.ctx.Params.Slots()
	z := randomSlots(n, 28, 1.0)
	ct := h.encrypt(t, z)
	for _, r := range rots {
		rot, err := h.ev.Rotate(ct, r)
		if err != nil {
			t.Fatal(err)
		}
		got := h.decrypt(rot)
		want := make([]complex128, n)
		for i := range want {
			want[i] = z[(i+r)%n]
		}
		if e := maxSlotError(got, want); e > 1e-4 {
			t.Fatalf("rotation %d error %v", r, e)
		}
	}
}

func TestConjugate(t *testing.T) {
	h := newHarness(t, nil)
	z := randomSlots(h.ctx.Params.Slots(), 29, 1.0)
	ct := h.encrypt(t, z)
	conj, err := h.ev.Conjugate(ct)
	if err != nil {
		t.Fatal(err)
	}
	got := h.decrypt(conj)
	for i := range z {
		if cmplx.Abs(got[i]-cmplx.Conj(z[i])) > 1e-4 {
			t.Fatalf("conjugate error at slot %d", i)
		}
	}
}

func TestKeySwitchContract(t *testing.T) {
	// KeySwitchFused(c, swk(s'→s)) yields (B,A) with B + A·s ≈ c·s'.
	h := newHarness(t, nil)
	ctx := h.ctx
	level := ctx.Params.MaxLevel()

	// s' = secret of an independent key pair.
	kg2 := NewKeyGenerator(ctx, 555)
	sk2 := kg2.GenSecretKey()
	swk := h.kg.GenSwitchingKey(sk2.Q, h.sk)

	c := rlwe.UniformPoly(prng.New(777), ctx.RQ, level)

	ksB, ksA := h.ev.KeySwitchFused(level, c, swk)
	// got = B + A·s.
	got := ctx.RQ.NewPoly(level)
	ctx.RQ.MulPoly(level, ksA, h.sk.Q, got)
	ctx.RQ.Add(level, got, ksB, got)
	// want = c·s'.
	want := ctx.RQ.NewPoly(level)
	ctx.RQ.MulPoly(level, c, sk2.Q, want)

	// Compare with a noise tolerance: the difference must be tiny relative
	// to q (decrypted difference coefficients are small integers).
	diff := ctx.RQ.NewPoly(level)
	ctx.RQ.Sub(level, got, want, diff)
	enc := h.enc
	for j := 0; j < ctx.Params.N(); j++ {
		d := enc.centeredCoeff(diff, j, level)
		if d > 1e9 || d < -1e9 { // |noise| ≪ q0·…·qL (≈2^255); 2^30 bound
			t.Fatalf("key switch noise too large at %d: %g", j, d)
		}
	}
}

func TestScaleMismatchRejected(t *testing.T) {
	h := newHarness(t, nil)
	z := randomSlots(h.ctx.Params.Slots(), 31, 1.0)
	ct1 := h.encrypt(t, z)
	ct2 := h.encrypt(t, z)
	ct2.Scale *= 2
	if _, err := h.ev.Add(ct1, ct2); err == nil {
		t.Fatal("expected scale mismatch error")
	}
}

func TestMissingKeysRejected(t *testing.T) {
	h := newHarness(t, nil)
	ev := NewEvaluator(h.ctx, nil)
	z := randomSlots(h.ctx.Params.Slots(), 32, 1.0)
	ct := h.encrypt(t, z)
	if _, err := ev.MulRelin(ct, ct); err == nil {
		t.Fatal("expected missing rlk error")
	}
	if _, err := ev.Rotate(ct, 1); err == nil {
		t.Fatal("expected missing rotation key error")
	}
	if _, err := h.ev.Rotate(ct, 3); err == nil {
		t.Fatal("expected missing rotation key error for unprepared step")
	}
	ct.Level = 0
	if _, err := h.ev.Rescale(ct); err == nil {
		t.Fatal("expected rescale error at level 0")
	}
}

func TestRotationComposition(t *testing.T) {
	// Rotate(r1) then Rotate(r2) == Rotate(r1+r2) on plaintext.
	h := newHarness(t, []int{1, 2, 3})
	n := h.ctx.Params.Slots()
	z := randomSlots(n, 33, 1.0)
	ct := h.encrypt(t, z)
	r1, err := h.ev.Rotate(ct, 1)
	if err != nil {
		t.Fatal(err)
	}
	r12, err := h.ev.Rotate(r1, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := h.decrypt(r12)
	want := make([]complex128, n)
	for i := range want {
		want[i] = z[(i+3)%n]
	}
	if e := maxSlotError(got, want); e > 1e-4 {
		t.Fatalf("rotation composition error %v", e)
	}
}

func TestRotateHoistedMatchesRotate(t *testing.T) {
	rots := []int{1, 2, 5, 9}
	h := newHarness(t, rots)
	n := h.ctx.Params.Slots()
	z := randomSlots(n, 34, 1.0)
	ct := h.encrypt(t, z)

	hoisted, err := h.ev.RotateHoisted(ct, rots)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rots {
		plain, err := h.ev.Rotate(ct, r)
		if err != nil {
			t.Fatal(err)
		}
		gotH := h.decrypt(hoisted[r])
		gotP := h.decrypt(plain)
		want := make([]complex128, n)
		for i := range want {
			want[i] = z[(i+r)%n]
		}
		if e := maxSlotError(gotH, want); e > 1e-4 {
			t.Fatalf("hoisted rotation %d error %v", r, e)
		}
		if e := maxSlotError(gotH, gotP); e > 1e-4 {
			t.Fatalf("hoisted and plain rotation %d disagree by %v", r, e)
		}
	}
	// Missing key must error.
	if _, err := h.ev.RotateHoisted(ct, []int{3}); err == nil {
		t.Fatal("expected missing-key error")
	}
}
