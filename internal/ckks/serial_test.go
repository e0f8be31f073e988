package ckks

import (
	"bytes"
	"testing"

	"alchemist/internal/ring"
)

func TestCiphertextSerializationRoundTrip(t *testing.T) {
	h := newHarness(t, nil)
	z := randomSlots(h.ctx.Params.Slots(), 61, 1.0)
	ct := h.encrypt(t, z)

	blob, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Ciphertext
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if back.Level != ct.Level || back.Scale != ct.Scale {
		t.Fatal("metadata lost")
	}
	// The deserialized ciphertext must decrypt identically.
	got := h.enc.Decode(h.dt.DecryptPoly(&back), back.Level, back.Scale)
	if e := maxSlotError(z, got); e > 1e-6 {
		t.Fatalf("round-tripped ciphertext decrypts with error %v", e)
	}
	// Wire stability: re-marshal equals the original bytes.
	blob2, err := back.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatal("marshal is not deterministic")
	}
}

func TestCiphertextSerializationRejectsCorruption(t *testing.T) {
	h := newHarness(t, nil)
	z := randomSlots(h.ctx.Params.Slots(), 62, 1.0)
	ct := h.encrypt(t, z)
	blob, _ := ct.MarshalBinary()

	var back Ciphertext
	if err := back.UnmarshalBinary(blob[:10]); err == nil {
		t.Error("expected truncated-header rejection")
	}
	if err := back.UnmarshalBinary(blob[:len(blob)-4]); err == nil {
		t.Error("expected truncated-payload rejection")
	}
	bad := append([]byte(nil), blob...)
	bad[0] = 0xFF // corrupt the level
	if err := back.UnmarshalBinary(bad); err == nil {
		t.Error("expected level-mismatch rejection")
	}
	// B and A at the same level but over different ring degrees.
	half := &ring.Poly{Coeffs: make([][]uint64, ct.Level+1)}
	for i := range half.Coeffs {
		half.Coeffs[i] = make([]uint64, h.ctx.Params.N()/2)
	}
	mixed, err := newCt(ct.B, half, ct.Level, ct.Scale).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := back.UnmarshalBinary(mixed); err == nil {
		t.Error("expected degree-mismatch rejection")
	}
}
