package bgv

import (
	"fmt"
	"math/rand"
	"testing"
)

type harness struct {
	ctx *Context
	enc *Encoder
	kg  *KeyGenerator
	sk  *SecretKey
	pk  *PublicKey
	rlk *SwitchingKey
	et  *Encryptor
	dt  *Decryptor
	ev  *Evaluator
}

func newHarness(t testing.TB) *harness {
	t.Helper()
	ctx, err := NewContext(TestParams())
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{ctx: ctx, enc: NewEncoder(ctx)}
	h.kg = NewKeyGenerator(ctx, 101)
	h.sk = h.kg.GenSecretKey()
	h.pk = h.kg.GenPublicKey(h.sk)
	h.rlk = h.kg.GenRelinKey(h.sk)
	h.et = NewEncryptor(ctx, h.pk, 102)
	h.dt = NewDecryptor(ctx, h.sk)
	h.ev = NewEvaluator(ctx, h.rlk)
	return h
}

func randSlots(n int, t uint64, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64() % t
	}
	return out
}

func (h *harness) encrypt(tb testing.TB, slots []uint64) *Ciphertext {
	tb.Helper()
	pt, err := h.enc.Encode(slots, h.ctx.Params.MaxLevel())
	if err != nil {
		tb.Fatal(err)
	}
	return h.et.Encrypt(pt, h.ctx.Params.MaxLevel())
}

func (h *harness) decrypt(ct *Ciphertext) []uint64 {
	return h.enc.Decode(h.dt.DecryptPoly(ct), ct.Level)
}

func assertEq(t *testing.T, got, want []uint64, msg string) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: slot %d: got %d want %d", msg, i, got[i], want[i])
		}
	}
}

func TestParamsValidation(t *testing.T) {
	p := TestParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := p
	bad.T = 65536 // not prime
	if err := bad.Validate(); err == nil {
		t.Error("expected composite-t rejection")
	}
	bad = p
	bad.Q = []uint64{12289} // not ≡ 1 mod t
	if err := bad.Validate(); err == nil {
		t.Error("expected q !≡ 1 mod t rejection")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	h := newHarness(t)
	params := h.ctx.Params
	slots := randSlots(params.N(), params.T, 1)
	pt, err := h.enc.Encode(slots, params.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}
	assertEq(t, h.enc.Decode(pt, params.MaxLevel()), slots, "encode/decode")
	if _, err := h.enc.Encode(make([]uint64, params.N()+1), 0); err == nil {
		t.Error("expected too-many-slots error")
	}
}

func TestEncryptDecryptExact(t *testing.T) {
	h := newHarness(t)
	slots := randSlots(h.ctx.Params.N(), h.ctx.Params.T, 2)
	ct := h.encrypt(t, slots)
	assertEq(t, h.decrypt(ct), slots, "encrypt/decrypt")
}

func TestHomomorphicAddSubExact(t *testing.T) {
	h := newHarness(t)
	tmod := h.ctx.Params.T
	z1 := randSlots(h.ctx.Params.N(), tmod, 3)
	z2 := randSlots(h.ctx.Params.N(), tmod, 4)
	c1, c2 := h.encrypt(t, z1), h.encrypt(t, z2)
	sum := make([]uint64, len(z1))
	diff := make([]uint64, len(z1))
	for i := range z1 {
		sum[i] = (z1[i] + z2[i]) % tmod
		diff[i] = (z1[i] + tmod - z2[i]) % tmod
	}
	assertEq(t, h.decrypt(h.ev.Add(c1, c2)), sum, "add")
	assertEq(t, h.decrypt(h.ev.Sub(c1, c2)), diff, "sub")
}

func TestMulPlainExact(t *testing.T) {
	h := newHarness(t)
	tmod := h.ctx.Params.T
	z := randSlots(h.ctx.Params.N(), tmod, 5)
	w := randSlots(h.ctx.Params.N(), tmod, 6)
	ct := h.encrypt(t, z)
	pt, err := h.enc.Encode(w, ct.Level)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]uint64, len(z))
	for i := range z {
		want[i] = z[i] * w[i] % tmod
	}
	assertEq(t, h.decrypt(h.ev.MulPlain(ct, pt)), want, "pmult")
}

func TestMulRelinExact(t *testing.T) {
	h := newHarness(t)
	tmod := h.ctx.Params.T
	z1 := randSlots(h.ctx.Params.N(), tmod, 7)
	z2 := randSlots(h.ctx.Params.N(), tmod, 8)
	c1, c2 := h.encrypt(t, z1), h.encrypt(t, z2)
	prod, err := h.ev.MulRelin(c1, c2)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]uint64, len(z1))
	for i := range z1 {
		want[i] = z1[i] * z2[i] % tmod
	}
	assertEq(t, h.decrypt(prod), want, "cmult")

	// And after the BGV modulus switch.
	res, err := h.ev.Rescale(prod)
	if err != nil {
		t.Fatal(err)
	}
	if res.Level != prod.Level-1 {
		t.Fatal("rescale did not drop a level")
	}
	assertEq(t, h.decrypt(res), want, "cmult+rescale")
}

func TestMultiplicationDepthExact(t *testing.T) {
	// BGV is exact: a chain of multiplications with rescaling must compute
	// the product mod t with zero error until levels run out.
	h := newHarness(t)
	tmod := h.ctx.Params.T
	n := h.ctx.Params.N()
	acc := randSlots(n, tmod, 9)
	ct := h.encrypt(t, acc)
	for depth := 0; ct.Level > 0; depth++ {
		z := randSlots(n, tmod, int64(10+depth))
		fresh := h.encrypt(t, z)
		prod, err := h.ev.MulRelin(ct, fresh)
		if err != nil {
			t.Fatal(err)
		}
		ct, err = h.ev.Rescale(prod)
		if err != nil {
			t.Fatal(err)
		}
		for i := range acc {
			acc[i] = acc[i] * z[i] % tmod
		}
		assertEq(t, h.decrypt(ct), acc, "depth chain")
	}
	if _, err := h.ev.Rescale(ct); err == nil {
		t.Error("expected level-0 rescale error")
	}
}

// TestRescaleWidePrimes runs MulRelin → Rescale on chains of 45- to 55-bit
// primes: the modulus switch must stay exact at any width the parameters
// admit, not only where an int64 happens to hold q_l·t.
func TestRescaleWidePrimes(t *testing.T) {
	for _, bits := range []uint64{45, 47, 50, 55} {
		t.Run(fmt.Sprintf("%dbit", bits), func(t *testing.T) {
			params, err := GenParams(7, 2, 3, 1, bits, bits+1, 65537)
			if err != nil {
				t.Fatal(err)
			}
			ctx, err := NewContext(params)
			if err != nil {
				t.Fatal(err)
			}
			enc := NewEncoder(ctx)
			kg := NewKeyGenerator(ctx, 41)
			sk := kg.GenSecretKey()
			et := NewEncryptor(ctx, kg.GenPublicKey(sk), 42)
			ev := NewEvaluator(ctx, kg.GenRelinKey(sk))
			n, tm := params.N(), params.T
			x, y := randSlots(n, tm, 43), randSlots(n, tm, 44)
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
			res, err := ev.Rescale(prod)
			if err != nil {
				t.Fatal(err)
			}
			for i := range x {
				x[i] = x[i] * y[i] % tm
			}
			assertEq(t, enc.Decode(NewDecryptor(ctx, sk).DecryptPoly(res), res.Level), x, "mulrelin+rescale")
		})
	}
}

func TestMissingRlkRejected(t *testing.T) {
	h := newHarness(t)
	ev := NewEvaluator(h.ctx, nil)
	z := randSlots(h.ctx.Params.N(), h.ctx.Params.T, 20)
	ct := h.encrypt(t, z)
	if _, err := ev.MulRelin(ct, ct); err == nil {
		t.Fatal("expected missing-rlk error")
	}
}

func TestSlotwiseSemantics(t *testing.T) {
	// The NTT packing makes homomorphic ops slot-wise: verify with a
	// structured vector.
	h := newHarness(t)
	n := h.ctx.Params.N()
	z := make([]uint64, n)
	for i := range z {
		z[i] = uint64(i)
	}
	ct := h.encrypt(t, z)
	sq, err := h.ev.MulRelin(ct, ct)
	if err != nil {
		t.Fatal(err)
	}
	got := h.decrypt(sq)
	for i := range z {
		want := uint64(i) * uint64(i) % h.ctx.Params.T
		if got[i] != want {
			t.Fatalf("slot %d: %d != %d", i, got[i], want)
		}
	}
}
