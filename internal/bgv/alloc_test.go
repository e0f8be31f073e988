// The race detector makes sync.Pool drop a random fraction of Puts (to
// shake out pool races), so allocation pins cannot hold under -race.
//go:build !race

package bgv

import "testing"

// TestEvaluatorAllocs pins the keyswitching and modulus-switching
// evaluator paths at one allocation per call — the returned *Ciphertext
// shell — once the ring arena is warm and each output goes back to RQ.
func TestEvaluatorAllocs(t *testing.T) {
	h := newHarness(t)
	n, tm := h.ctx.Params.N(), h.ctx.Params.T
	k := h.ctx.RQ.GaloisElementForRotation(1)
	gk := h.kg.GenGaloisKey(k, h.sk)
	ct1 := h.encrypt(t, randSlots(n, tm, 51))
	ct2 := h.encrypt(t, randSlots(n, tm, 52))
	ops := []struct {
		name string
		run  func() (*Ciphertext, error)
	}{
		{"MulRelin", func() (*Ciphertext, error) { return h.ev.MulRelin(ct1, ct2) }},
		{"ApplyGalois", func() (*Ciphertext, error) { return h.ev.ApplyGalois(ct1, k, gk) }},
		{"Rescale", func() (*Ciphertext, error) { return h.ev.Rescale(ct1) }},
	}
	for _, op := range ops {
		cycle := func() {
			out, err := op.run()
			if err != nil {
				t.Fatal(err)
			}
			h.ctx.RQ.Release(out.B)
			h.ctx.RQ.Release(out.A)
		}
		cycle() // warm the arena
		if got := testing.AllocsPerRun(20, cycle); got != 1 {
			t.Errorf("warm %s allocates %.1f per op, want 1 (the ciphertext shell)", op.name, got)
		}
	}
}

// TestEncryptAllocs pins a warm Encrypt at no more than one allocation, the
// returned *Ciphertext shell (none here, where the shell does not escape
// the cycle): the public key is transformed once at construction,
// the samples land in the encryptor's buffer, u and both output halves come
// from the ring arena, and each output goes back to RQ.
func TestEncryptAllocs(t *testing.T) {
	h := newHarness(t)
	level := h.ctx.Params.MaxLevel()
	pt, err := h.enc.Encode(randSlots(h.ctx.Params.N(), h.ctx.Params.T, 53), level)
	if err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		ct := h.et.Encrypt(pt, level)
		h.ctx.RQ.Release(ct.B)
		h.ctx.RQ.Release(ct.A)
	}
	cycle() // warm the arena
	if got := testing.AllocsPerRun(20, cycle); got > 1 {
		t.Errorf("warm Encrypt allocates %.1f per op, want at most 1 (the ciphertext shell)", got)
	}
}
