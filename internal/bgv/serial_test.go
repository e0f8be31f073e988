package bgv

import (
	"testing"

	"alchemist/internal/ring"
)

func TestCiphertextSerializationRoundTrip(t *testing.T) {
	h := newHarness(t)
	slots := randSlots(h.ctx.Params.N(), h.ctx.Params.T, 91)
	ct := h.encrypt(t, slots)
	blob, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Ciphertext
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	assertEq(t, h.decrypt(&back), slots, "serialized decrypt")
	if err := back.UnmarshalBinary(blob[:6]); err == nil {
		t.Error("expected truncation rejection")
	}
	bad := append([]byte(nil), blob...)
	bad[0] = 0x7F
	if err := back.UnmarshalBinary(bad); err == nil {
		t.Error("expected level-mismatch rejection")
	}
	// B and A at the same level but over different ring degrees.
	half := &ring.Poly{Coeffs: make([][]uint64, ct.Level+1)}
	for i := range half.Coeffs {
		half.Coeffs[i] = make([]uint64, h.ctx.Params.N()/2)
	}
	mixed, err := (&Ciphertext{B: ct.B, A: half, Level: ct.Level}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := back.UnmarshalBinary(mixed); err == nil {
		t.Error("expected degree-mismatch rejection")
	}
}
