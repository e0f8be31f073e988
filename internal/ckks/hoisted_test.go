package ckks

import (
	"sync"
	"testing"
)

// TestRotateHoistedSharedDecompositionDeterministic: two batches against the
// same caller-held decomposition must produce bit-identical ciphertexts —
// the sharing contract RotateHoistedWith documents.
func TestRotateHoistedSharedDecompositionDeterministic(t *testing.T) {
	h := newHarness(t, []int{1, 2})
	ct := h.encrypt(t, randomSlots(h.ctx.Params.Slots(), 55, 1.0))
	ev := h.ev
	d := ev.DecomposeOnce(ct.Level, ct.A)
	var out1, out2 [2]*Ciphertext
	if err := ev.RotateHoistedWith(ct, d, []int{1, 2}, out1[:]); err != nil {
		t.Fatal(err)
	}
	if err := ev.RotateHoistedWith(ct, d, []int{1, 2}, out2[:]); err != nil {
		t.Fatal(err)
	}
	ev.ReleaseDecomposition(d)
	for i := range out1 {
		if !h.ctx.RQ.Equal(ct.Level, out1[i].B, out2[i].B) || !h.ctx.RQ.Equal(ct.Level, out1[i].A, out2[i].A) {
			t.Fatalf("batch %d: shared-decomposition rotation is not deterministic", i)
		}
	}
}

// TestConcurrentRotateHoistedSharedDecomposition exercises the documented
// concurrency contract: many goroutines rotating against ONE read-only
// decomposition, with the ring worker pool enabled underneath (the engine's
// worker threads do exactly this). Runs under the CI race subset; outputs
// are checked bit-exact against a serial reference.
func TestConcurrentRotateHoistedSharedDecomposition(t *testing.T) {
	steps := []int{1, 2, 5, 9}
	h := newHarness(t, steps)
	ct := h.encrypt(t, randomSlots(h.ctx.Params.Slots(), 56, 1.0))
	ev := h.ev
	h.ctx.RQ.SetWorkers(2)
	h.ctx.RP.SetWorkers(2)
	defer func() {
		h.ctx.RQ.Close()
		h.ctx.RP.Close()
		h.ctx.RQ.SetWorkers(1)
		h.ctx.RP.SetWorkers(1)
	}()

	d := ev.DecomposeOnce(ct.Level, ct.A)
	ref := make([]*Ciphertext, len(steps))
	if err := ev.RotateHoistedWith(ct, d, steps, ref); err != nil {
		t.Fatal(err)
	}

	const workers = 4
	var wg sync.WaitGroup
	errs := make([]error, workers)
	outs := make([][]*Ciphertext, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			outs[w] = make([]*Ciphertext, len(steps))
			errs[w] = ev.RotateHoistedWith(ct, d, steps, outs[w])
		}(w)
	}
	wg.Wait()
	ev.ReleaseDecomposition(d)
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		for i := range steps {
			if !h.ctx.RQ.Equal(ct.Level, ref[i].B, outs[w][i].B) || !h.ctx.RQ.Equal(ct.Level, ref[i].A, outs[w][i].A) {
				t.Fatalf("worker %d step %d: concurrent hoisted rotation differs from serial", w, steps[i])
			}
		}
	}
}
