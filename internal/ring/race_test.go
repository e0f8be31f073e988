package ring

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"alchemist/internal/modmath"
)

// Race stress tests: a single Ring's precomputed tables (twiddles, Barrett
// and Shoup constants) are shared read-only across goroutines, and the
// channel-parallel NTT fans work out internally. Run under -race these
// exercise both layers of concurrency at once.

func raceRing(t *testing.T) *Ring {
	t.Helper()
	const n = 256
	primes, err := modmath.GenerateNTTPrimes(40, uint64(2*n), 6)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(n, primes)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestConcurrentNTTSharedRing hammers one worker-enabled Ring from many
// goroutines, each transforming its own polynomial. The NTT's internal
// fan-out nests inside the outer goroutines, so worker bookkeeping bugs
// (shared scratch, non-reentrant channel pools) show up as races or
// round-trip corruption.
func TestConcurrentNTTSharedRing(t *testing.T) {
	r := raceRing(t)
	r.SetWorkers(4)
	level := r.MaxLevel()

	const goroutines = 8
	const rounds = 20
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := newUniformSampler(r, int64(1000+g))
			p := r.NewPoly(level)
			s.Uniform(level, p)
			want := r.Clone(level, p)
			for i := 0; i < rounds; i++ {
				r.NTT(level, p)
				r.INTT(level, p)
			}
			if !r.Equal(level, want, p) {
				errs <- "NTT/INTT round trip corrupted under concurrency"
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestConcurrentMulPolySharedRing exercises the full negacyclic convolution
// (forward transforms, pointwise Shoup products, inverse transform) from
// concurrent goroutines sharing one Ring.
func TestConcurrentMulPolySharedRing(t *testing.T) {
	r := raceRing(t)
	r.SetWorkers(2)
	level := r.MaxLevel()

	const goroutines = 6
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := newUniformSampler(r, int64(2000+g))
			a := r.NewPoly(level)
			one := r.NewPoly(level)
			out := r.NewPoly(level)
			s.Uniform(level, a)
			for i := range one.Coeffs {
				one.Coeffs[i][0] = 1 // multiplicative identity
			}
			for i := 0; i < 10; i++ {
				mulNTT(r, level, a, one, out)
			}
			if !r.Equal(level, a, out) {
				errs <- "a * 1 != a under concurrent NTT products"
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestSetWorkersWhileTransforming retunes the worker count from one
// goroutine while others run transforms on the same Ring. SetWorkers is
// documented race-safe: every kernel dispatch reads the count once,
// so retuning mid-flight may change parallelism but never correctness.
func TestSetWorkersWhileTransforming(t *testing.T) {
	r := raceRing(t)
	level := r.MaxLevel()

	stop := make(chan struct{})
	var tuner sync.WaitGroup
	tuner.Add(1)
	go func() {
		defer tuner.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r.SetWorkers(1 + i%8)
		}
	}()

	const goroutines = 4
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := r.NewPoly(level)
			newUniformSampler(r, int64(40+g)).Uniform(level, p)
			want := r.Clone(level, p)
			for i := 0; i < 15; i++ {
				r.NTT(level, p)
				r.INTT(level, p)
			}
			if !r.Equal(level, want, p) {
				errs <- "round trip corrupted while retuning workers"
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	tuner.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if w := r.Workers(); w < 1 || w > 8 {
		t.Fatalf("Workers() = %d after tuning in [1,8]", w)
	}
}

// waitGoroutines polls until the live goroutine count drops to want (workers
// broadcast completion while still holding the pool lock, so the count can
// lag Close by a scheduler beat).
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d live, want ≤ %d", runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// TestCloseReleasesWorkers pins the resident pool's lifecycle: parallel
// transforms spawn worker goroutines, Close tears every one of them down,
// and the ring stays usable (serial, then respawning) afterwards. The
// worker count is clamped to GOMAXPROCS at spawn, so the test raises it —
// single-CPU CI machines would otherwise never spawn a helper.
func TestCloseReleasesWorkers(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	base := runtime.NumGoroutine()
	r := raceRing(t)
	r.SetWorkers(4)
	level := r.MaxLevel()
	p := r.NewPoly(level)
	newUniformSampler(r, 9).Uniform(level, p)
	want := r.Clone(level, p)

	r.NTT(level, p)
	r.INTT(level, p)
	if n := runtime.NumGoroutine(); n <= base {
		t.Fatalf("parallel transform spawned no workers (%d goroutines, base %d)", n, base)
	}

	r.Close()
	waitGoroutines(t, base)

	// Still usable after Close: transforms respawn workers on demand.
	r.NTT(level, p)
	r.INTT(level, p)
	if !r.Equal(level, want, p) {
		t.Fatal("round trip corrupted after Close")
	}
	r.Close()
	r.Close() // idempotent
	waitGoroutines(t, base)
}

// TestCloseConcurrentWithTransforms drives Close from one goroutine while
// others keep transforming: outstanding jobs must finish, and no goroutine
// may survive the final Close.
func TestCloseConcurrentWithTransforms(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	base := runtime.NumGoroutine()
	r := raceRing(t)
	r.SetWorkers(3)
	level := r.MaxLevel()

	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := r.NewPoly(level)
			newUniformSampler(r, int64(70+g)).Uniform(level, p)
			want := r.Clone(level, p)
			for i := 0; i < 10; i++ {
				r.NTT(level, p)
				r.INTT(level, p)
			}
			if !r.Equal(level, want, p) {
				errs <- "round trip corrupted while closing concurrently"
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			r.Close()
		}
	}()
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	r.Close()
	waitGoroutines(t, base)
}
