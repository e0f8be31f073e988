// The race detector makes sync.Pool drop a random fraction of Puts (to
// shake out pool races), so zero-allocation pins cannot hold under -race.
//go:build !race

package tfhe

import (
	"context"
	"testing"
)

// Steady-state pin for the full streaming bootstrap datapath: once the
// Bootstrapper's arenas are warm, Run + Recycle must be allocation-free —
// every intermediate (ãbar, accumulator, FFT scratch, extracted and
// key-switched LWE samples) comes from a pool and goes back.
func TestBootstrapperRunAllocFree(t *testing.T) {
	s := getScheme(t)
	b, err := s.Bootstrapper()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ct := s.EncryptBool(true)
	for i := 0; i < 3; i++ { // warm every pool on the Run path
		out, err := b.Run(ctx, ct)
		if err != nil {
			t.Fatal(err)
		}
		b.Recycle(out)
	}
	if n := testing.AllocsPerRun(10, func() {
		out, err := b.Run(ctx, ct)
		if err != nil {
			t.Fatal(err)
		}
		b.Recycle(out)
	}); n != 0 {
		t.Errorf("warm Bootstrapper.Run allocates %.1f per op, want 0", n)
	}
}

// Same pin for the batched chunk kernel used by RunBatch and Stream.
func TestBootstrapperBatchAllocFree(t *testing.T) {
	s := getScheme(t)
	b, err := s.Bootstrapper(WithBatchWidth(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cts := []*LweSample{
		s.EncryptBool(true), s.EncryptBool(false),
		s.EncryptBool(true), s.EncryptBool(false),
	}
	recycle := func(outs []*LweSample) {
		for _, o := range outs {
			b.Recycle(o)
		}
	}
	for i := 0; i < 3; i++ {
		outs, err := b.RunBatch(ctx, cts)
		if err != nil {
			t.Fatal(err)
		}
		recycle(outs)
	}
	// RunBatch allocates its result slice and worker bookkeeping; the pin is
	// on the per-job arithmetic, so a small constant overhead is allowed but
	// nothing proportional to the polynomial degree.
	if n := testing.AllocsPerRun(10, func() {
		outs, err := b.RunBatch(ctx, cts)
		if err != nil {
			t.Fatal(err)
		}
		recycle(outs)
	}); n > 12 {
		t.Errorf("warm Bootstrapper.RunBatch allocates %.1f per batch, want <= 12 bookkeeping allocs", n)
	}
}
