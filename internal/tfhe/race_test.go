package tfhe

import (
	"context"
	"sync"
	"testing"

	"alchemist/internal/prng"
)

// Race stress tests: a Scheme's key material (bootstrapping key, key-switch
// key) is read-only once built, so gate evaluation and programmable
// bootstrapping must be safe to fan out. Run under -race these provoke the
// accelerator-style batch schedule on the CPU model.

// TestConcurrentGatesSharedScheme evaluates NAND gates from many goroutines
// against one shared scheme, checking truth-table correctness per goroutine.
// Encryption draws from the scheme's single PRNG stream and so stays on the
// main goroutine; only the (deterministic, key-reading) gate evaluation and
// decryption fan out.
func TestConcurrentGatesSharedScheme(t *testing.T) {
	s := getScheme(t)

	const goroutines = 8
	type job struct {
		a, b bool
		x, y *LweSample
	}
	jobs := make([]job, goroutines)
	for g := range jobs {
		a, b := g&1 == 0, g&2 == 0
		jobs[g] = job{a, b, s.EncryptBool(a), s.EncryptBool(b)}
	}

	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			out, err := s.NAND(j.x, j.y)
			if err != nil {
				errs <- err.Error()
				return
			}
			if got := s.DecryptBool(out); got != !(j.a && j.b) {
				errs <- "NAND truth table violated under concurrency"
			}
		}(jobs[g])
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestBootstrapBatchRace drives Bootstrapper.RunBatch with more work items
// than workers while a second batch runs on the same bootstrapper, so the
// span queue, the pooled chunk scratch and the result slices are exercised
// from overlapping batches.
func TestBootstrapBatchRace(t *testing.T) {
	s := getScheme(t)
	boot, err := s.Bootstrapper(WithWorkers(3), WithTestVector(s.GateTestVector(TorusFromDouble(0.125))))
	if err != nil {
		t.Fatal(err)
	}

	const batch = 12
	type work struct {
		wants []bool
		cts   []*LweSample
	}
	// Encrypt on the main goroutine (the scheme's PRNG is a single stream);
	// the overlapping batches below only read key material.
	mk := func(seedBit bool) work {
		w := work{wants: make([]bool, batch), cts: make([]*LweSample, batch)}
		for i := range w.cts {
			w.wants[i] = (i&1 == 0) != seedBit
			w.cts[i] = s.EncryptBool(w.wants[i])
		}
		return w
	}
	works := []work{mk(false), mk(true)}

	var wg sync.WaitGroup
	for g := range works {
		wg.Add(1)
		go func(w work) {
			defer wg.Done()
			outs, err := boot.RunBatch(context.Background(), w.cts)
			if err != nil {
				t.Error(err)
				return
			}
			for i, want := range w.wants {
				if got := s.DecryptBool(outs[i]); got != want {
					t.Errorf("batch PBS %d: got %v want %v", i, got, want)
				}
			}
		}(works[g])
	}
	wg.Wait()
}

// TestConcurrentTrlweEncrypt encrypts from many goroutines under one shared
// ring key: the key's spectra are read-only and every encryption borrows its
// FFT scratch from the multiplier's shared arenas, so each goroutine must
// reproduce the sample a serial encryption with the same seed gives.
func TestConcurrentTrlweEncrypt(t *testing.T) {
	p := FastTestParams()
	key := NewTrlweKey(p, NewPolyMultiplier(p.N), prng.New(5))
	mu := make(TorusPoly, p.N)
	for j := range mu {
		mu[j] = Torus(j) << 20
	}

	const goroutines = 8
	want := make([]*TrlweSample, goroutines)
	for g := range want {
		want[g] = key.Encrypt(mu, p.BkSigma, prng.New(int64(100+g)))
	}
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got := key.Encrypt(mu, p.BkSigma, prng.New(int64(100+g)))
			for j := range got.B {
				if got.B[j] != want[g].B[j] || got.A[0][j] != want[g].A[0][j] {
					errs <- "concurrent encryption differs from the serial one"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
