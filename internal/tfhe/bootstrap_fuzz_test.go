package tfhe

import (
	"context"
	"math"
	"testing"
)

// The fuzzers pin the execution-shape contract of the Bootstrapper API:
// Run, RunBatch and Stream are three schedules of the SAME arithmetic, so
// their outputs must agree bit-for-bit (per job, the trimmed kernels consume
// an input-independent f64 sequence, and the batched key switch commutes
// exactly modulo 2^32). The trimmed FFT engine as a whole is pinned to the
// exact-NTT reference bootstrap (eager_test.go) only at phase level, within
// the EXPERIMENTS.md noise budget.

// fuzzCt builds a deterministic gate-encoded ciphertext from fuzz input.
func fuzzCt(s *Scheme, seed uint32, sign bool) *LweSample {
	mu := TorusFromDouble(0.125)
	if !sign {
		mu = TorusFromDouble(-0.125)
	}
	ct := s.constSample(mu)
	// Deterministic pseudo-noise mask: phase stays mu exactly by
	// construction (B absorbs A·s), so eager-vs-trim deviations are pure
	// engine noise, not input noise.
	x := seed | 1
	for i := range ct.A {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		ct.A[i] = Torus(x)
		if s.LweKey.S[i] == 1 {
			ct.B += Torus(x)
		}
	}
	return ct
}

func sampleEqual(a, b *LweSample) bool {
	if a.B != b.B || len(a.A) != len(b.A) {
		return false
	}
	for i := range a.A {
		if a.A[i] != b.A[i] {
			return false
		}
	}
	return true
}

func FuzzBootstrapSchedulesAgree(f *testing.F) {
	f.Add(uint32(1), true)
	f.Add(uint32(0xdeadbeef), false)
	f.Add(uint32(42), true)
	f.Add(uint32(7777), false)
	f.Fuzz(func(t *testing.T, seed uint32, sign bool) {
		s := getScheme(t)
		ct := fuzzCt(s, seed, sign)
		b, err := s.Bootstrapper(WithBatchWidth(4))
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()

		single, err := b.Run(ctx, ct)
		if err != nil {
			t.Fatal(err)
		}

		// RunBatch: the job rides in a batch with decoys at every offset.
		cts := []*LweSample{fuzzCt(s, seed+1, !sign), ct, fuzzCt(s, seed+2, sign), ct}
		outs, err := b.RunBatch(ctx, cts)
		if err != nil {
			t.Fatal(err)
		}
		if !sampleEqual(single, outs[1]) || !sampleEqual(single, outs[3]) {
			t.Fatalf("RunBatch output differs from Run (seed=%d)", seed)
		}

		// Stream: same jobs through the stage pipeline.
		sctx, cancel := context.WithCancel(ctx)
		defer cancel()
		jobs, results := b.Stream(sctx)
		go func() {
			for i, c := range cts {
				jobs <- Job{Tag: i, Ct: c}
			}
			close(jobs)
		}()
		got := 0
		for res := range results {
			if res.Err != nil {
				t.Errorf("stream job %d: %v", res.Tag, res.Err)
				continue
			}
			if !sampleEqual(outs[res.Tag], res.Out) {
				t.Errorf("stream output %d differs from RunBatch (seed=%d)", res.Tag, seed)
			}
			got++
		}
		if got != len(cts) {
			t.Fatalf("stream returned %d results, want %d", got, len(cts))
		}
	})
}

func FuzzTrimmedVsEagerPhase(f *testing.F) {
	f.Add(uint32(3), true)
	f.Add(uint32(0xabcdef), false)
	f.Fuzz(func(t *testing.T, seed uint32, sign bool) {
		s := getScheme(t)
		ct := fuzzCt(s, seed, sign)
		bt, err := s.Bootstrapper()
		if err != nil {
			t.Fatal(err)
		}
		oe := s.eagerBootstrap(ct, s.GateTestVector(TorusFromDouble(0.125)))
		ot, err := bt.Run(context.Background(), ct)
		if err != nil {
			t.Fatal(err)
		}
		pe := DoubleFromTorus(s.LweKey.Phase(oe))
		pt := DoubleFromTorus(s.LweKey.Phase(ot))
		d := math.Abs(pe - pt)
		if d > 0.5 {
			d = 1 - d
		}
		// Trimmed-engine deviation budget: ~6e-3 std (EXPERIMENTS.md);
		// 0.03 < half the 1/16 gate margin and > 4σ of the budget.
		if d > 0.03 {
			t.Fatalf("trimmed phase %v vs eager %v: |Δ| = %v exceeds noise budget", pt, pe, d)
		}
	})
}
