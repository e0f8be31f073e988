package ring

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"alchemist/internal/modmath"
	"alchemist/internal/tokens"
)

// Scheduler correctness: the limb/block scheduler must produce outputs
// byte-identical to the serial loops at EVERY worker count (the partition is
// static and each task unit's arithmetic is independent of the partition),
// deterministically across repeated runs, and degrade to serial — same
// bytes — when the token budget grants no helpers.

// withParallel raises GOMAXPROCS and the compute-token budget for the
// duration of a test so the scheduler actually grants helpers on single-core
// CI hosts (where both default to 1), restoring both on cleanup.
func withParallel(tb testing.TB, n int) {
	tb.Helper()
	old := runtime.GOMAXPROCS(n)
	oldBudget := tokens.Budget()
	tokens.SetBudget(n)
	tb.Cleanup(func() {
		runtime.GOMAXPROCS(old)
		tokens.SetBudget(oldBudget)
	})
}

// schedFixture carries every operand the parallel kernel suite touches.
type schedFixture struct {
	rq, rp *Ring
	ext    *Extender
	extT   *Extender // keeps a plaintext modulus t ≠ 1 (BGV/BFV)
	dual   *DualConverter
	alpha  int
}

func newSchedFixture(n, nQ, nP int) (*schedFixture, error) {
	primes, err := modmath.GenerateNTTPrimes(40, uint64(2*n), nQ+nP)
	if err != nil {
		return nil, err
	}
	rq, err := NewRing(n, primes[:nQ])
	if err != nil {
		return nil, err
	}
	rp, err := NewRing(n, primes[nQ:])
	if err != nil {
		return nil, err
	}
	f := &schedFixture{rq: rq, rp: rp, ext: NewExtender(rq, rp, 1), extT: NewExtender(rq, rp, 65537), alpha: 2}
	toQ := NewBasisConverter(primes[:f.alpha], primes[:nQ])
	toP := NewBasisConverter(primes[:f.alpha], primes[nQ:])
	toQ.BindScheduler(rq)
	toP.BindScheduler(rq)
	f.dual, err = NewDualConverter(toQ, toP, 0)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// runKernelSuite runs every scheduler-dispatched kernel once with operands
// derived from seed and returns named snapshots of all outputs.
func (f *schedFixture) runKernelSuite(seed int64) map[string][][]uint64 {
	r := f.rq
	level := r.MaxLevel()
	res := make(map[string][][]uint64)
	snap := func(name string, p *Poly, lvl int) {
		cp := make([][]uint64, lvl+1)
		for i := range cp {
			cp[i] = append([]uint64(nil), p.Coeffs[i]...)
		}
		res[name] = cp
	}
	a := randPoly(r, level, seed)
	b := randPoly(r, level, seed+1)
	out := r.NewPoly(level)

	p := r.Clone(level, a)
	r.NTT(level, p)
	snap("ntt", p, level)
	r.INTT(level, p)
	snap("intt", p, level)

	r.Add(level, a, b, out)
	snap("add", out, level)
	r.Sub(level, a, b, out)
	snap("sub", out, level)
	r.Neg(level, a, out)
	snap("neg", out, level)
	r.MulCoeffs(level, a, b, out)
	snap("mul", out, level)
	bs := r.NewPoly(level)
	r.ShoupConstants(level, b, bs)
	r.MulCoeffsShoup(level, a, b, bs, out)
	snap("mulshoup", out, level)
	acc := r.Clone(level, b)
	r.MulCoeffsAndAdd(level, a, b, acc)
	snap("muladd", acc, level)
	r.MulScalar(level, a, 0x1234567, out)
	snap("mulscalar", out, level)

	r.AutomorphismNTT(level, a, 5, out)
	snap("autontt", out, level)

	pLevel := f.rp.MaxLevel()
	outP := f.rp.NewPoly(pLevel)
	f.ext.ModUp(level, a, outP)
	snap("modup", outP, pLevel)
	f.ext.ModDown(level, a, outP, out)
	snap("moddown", out, level)
	f.ext.RescaleByLastModulus(level, a, out)
	snap("rescale", out, level-1)
	f.extT.ModDown(level, a, outP, out)
	snap("moddown-t", out, level)
	f.extT.RescaleByLastModulus(level, a, out)
	snap("rescale-t", out, level-1)

	outQ2 := r.NewPoly(level)
	outP2 := f.rp.NewPoly(pLevel)
	f.dual.ConvertBoth(f.alpha-1, a.Coeffs[:f.alpha], outQ2.Coeffs, outP2.Coeffs, level+1)
	snap("convboth-q", outQ2, level)
	snap("convboth-p", outP2, pLevel)

	d := []*Poly{randPoly(r, level, seed+10), randPoly(r, level, seed+11), randPoly(r, level, seed+12)}
	kB := []*Poly{randPoly(r, level, seed+20), randPoly(r, level, seed+21), randPoly(r, level, seed+22)}
	kA := []*Poly{randPoly(r, level, seed+30), randPoly(r, level, seed+31), randPoly(r, level, seed+32)}
	outA := r.NewPoly(level)
	r.KSAccumulate(level, d, kB, kA, 0, false, out, outA)
	snap("ksacc-b", out, level)
	snap("ksacc-a", outA, level)
	r.KSAccumulate(level, d, kB, kA, 5, true, out, outA)
	snap("ksacc-perm-b", out, level)
	snap("ksacc-perm-a", outA, level)
	return res
}

// diffSuites fails the test naming the first kernel and coefficient where
// the two snapshot sets disagree.
func diffSuites(tb testing.TB, label string, want, got map[string][][]uint64) {
	tb.Helper()
	if len(want) != len(got) {
		tb.Fatalf("%s: snapshot count mismatch: %d vs %d", label, len(want), len(got))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok || len(g) != len(w) {
			tb.Fatalf("%s: kernel %s: missing or misshapen snapshot", label, name)
		}
		for i := range w {
			for k := range w[i] {
				if w[i][k] != g[i][k] {
					tb.Fatalf("%s: kernel %s: limb %d coeff %d: serial %d != parallel %d",
						label, name, i, k, w[i][k], g[i][k])
				}
			}
		}
	}
}

// schedFixtureCached builds the (expensive) fixture once for the fuzz
// entries and byte-identity tests that share parameters.
var schedFixtureOnce struct {
	sync.Once
	f   *schedFixture
	err error
}

func cachedSchedFixture(tb testing.TB) *schedFixture {
	tb.Helper()
	schedFixtureOnce.Do(func() {
		// Degree past minElemParN so the elementwise kernels dispatch too.
		schedFixtureOnce.f, schedFixtureOnce.err = newSchedFixture(minElemParN, 7, 2)
	})
	if schedFixtureOnce.err != nil {
		tb.Fatal(schedFixtureOnce.err)
	}
	return schedFixtureOnce.f
}

// TestParallelKernelsMatchSerial pins byte-identity of the full kernel suite
// across worker counts, including counts above the task count and above
// GOMAXPROCS (both clamp).
func TestParallelKernelsMatchSerial(t *testing.T) {
	f := cachedSchedFixture(t)
	withParallel(t, 4)
	f.rq.SetWorkers(1)
	f.rp.SetWorkers(1)
	want := f.runKernelSuite(42)
	for _, w := range []int{2, 3, 4, 8, 64} {
		f.rq.SetWorkers(w)
		f.rp.SetWorkers(w)
		got := f.runKernelSuite(42)
		diffSuites(t, fmt.Sprintf("workers=%d", w), want, got)
	}
	f.rq.SetWorkers(1)
	f.rp.SetWorkers(1)
	f.rq.Close()
	f.rp.Close()
}

// FuzzParallelVsSerialKernels fuzzes operand contents and an arbitrary
// worker count against the serial oracle: NTT, elementwise, Bconv (ModUp /
// dual conversion), KSAccumulate, and ModDown and rescale both plain and
// t-scaled must be byte-identical at worker counts 1/2/3/8 and at the
// fuzzed count.
func FuzzParallelVsSerialKernels(f *testing.F) {
	f.Add(int64(1), uint8(2))
	f.Add(int64(7), uint8(3))
	f.Add(int64(1<<40), uint8(8))
	fx := cachedSchedFixture(f)
	withParallel(f, 4)
	f.Fuzz(func(t *testing.T, seed int64, wsel uint8) {
		fx.rq.SetWorkers(1)
		fx.rp.SetWorkers(1)
		want := fx.runKernelSuite(seed)
		for _, w := range []int{2, 3, 8, int(wsel%16) + 1} {
			fx.rq.SetWorkers(w)
			fx.rp.SetWorkers(w)
			got := fx.runKernelSuite(seed)
			diffSuites(t, fmt.Sprintf("workers=%d", w), want, got)
		}
		fx.rq.SetWorkers(1)
		fx.rp.SetWorkers(1)
	})
}

// TestParallelDeterminism asserts repeated parallel runs are bit-identical:
// the static partition leaves nothing to thread timing.
func TestParallelDeterminism(t *testing.T) {
	f := cachedSchedFixture(t)
	withParallel(t, 3)
	f.rq.SetWorkers(3)
	f.rp.SetWorkers(3)
	defer func() {
		f.rq.SetWorkers(1)
		f.rp.SetWorkers(1)
	}()
	want := f.runKernelSuite(99)
	for run := 0; run < 5; run++ {
		diffSuites(t, fmt.Sprintf("run=%d", run), want, f.runKernelSuite(99))
	}
}

// TestZeroTokenBudgetDegradesToSerial drains the compute-token pool and
// checks the parallel-configured suite still completes with serial-identical
// bytes: a zero grant means the caller runs every partition inline.
func TestZeroTokenBudgetDegradesToSerial(t *testing.T) {
	f := cachedSchedFixture(t)
	withParallel(t, 4)
	f.rq.SetWorkers(1)
	f.rp.SetWorkers(1)
	want := f.runKernelSuite(7)

	held := tokens.Acquire(tokens.Budget())
	if held == 0 {
		t.Fatal("could not drain token budget")
	}
	defer tokens.Release(held)
	f.rq.SetWorkers(8)
	f.rp.SetWorkers(8)
	defer func() {
		f.rq.SetWorkers(1)
		f.rp.SetWorkers(1)
	}()
	diffSuites(t, "zero-budget", want, f.runKernelSuite(7))
}

// TestPartBoundsCoverDisjoint pins the static partition arithmetic: for any
// (tasks, parts) the ranges concatenate to exactly [0, tasks).
func TestPartBoundsCoverDisjoint(t *testing.T) {
	for tasks := 1; tasks <= 48; tasks++ {
		for parts := 1; parts <= tasks; parts++ {
			next := 0
			for w := 0; w < parts; w++ {
				lo, hi := partBounds(tasks, parts, w)
				if lo != next {
					t.Fatalf("tasks=%d parts=%d w=%d: lo=%d want %d", tasks, parts, w, lo, next)
				}
				if hi < lo {
					t.Fatalf("tasks=%d parts=%d w=%d: hi=%d < lo=%d", tasks, parts, w, hi, lo)
				}
				next = hi
			}
			if next != tasks {
				t.Fatalf("tasks=%d parts=%d: covered %d", tasks, parts, next)
			}
		}
	}
}

// TestTokensAcquireRelease pins the non-blocking token-budget contract.
func TestTokensAcquireRelease(t *testing.T) {
	old := tokens.Budget()
	defer tokens.SetBudget(old)
	tokens.SetBudget(3)
	if g := tokens.Acquire(2); g != 2 {
		t.Fatalf("Acquire(2) = %d, want 2", g)
	}
	if g := tokens.Acquire(5); g != 1 {
		t.Fatalf("Acquire(5) with 1 left = %d, want 1", g)
	}
	if g := tokens.Acquire(1); g != 0 {
		t.Fatalf("Acquire on empty pool = %d, want 0", g)
	}
	if tokens.InUse() != 3 {
		t.Fatalf("InUse = %d, want 3", tokens.InUse())
	}
	// Shrinking below the outstanding claims must not panic and must keep
	// new acquisitions at zero until enough is released.
	tokens.SetBudget(1)
	if g := tokens.Acquire(1); g != 0 {
		t.Fatalf("Acquire after shrink = %d, want 0", g)
	}
	tokens.Release(3)
	if g := tokens.Acquire(1); g != 1 {
		t.Fatalf("Acquire after release = %d, want 1", g)
	}
	tokens.Release(1)
}

// TestConcurrentKernelSuiteSharedScheduler hammers one worker-enabled ring
// with the scheduler-dispatched kernels from several goroutines at once (the
// engine-composition shape: outer job parallelism over inner limb
// parallelism, both drawing on one token budget). Run under -race by the CI
// worker-pool lifecycle leg.
func TestConcurrentKernelSuiteSharedScheduler(t *testing.T) {
	f, err := newSchedFixture(256, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	withParallel(t, 4)
	f.rq.SetWorkers(3)
	f.rp.SetWorkers(3)
	defer f.rq.Close()
	defer f.rp.Close()

	f.rq.SetWorkers(1)
	want := f.runKernelSuite(5)
	f.rq.SetWorkers(3)

	const goroutines = 6
	var wg sync.WaitGroup
	fail := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				got := f.runKernelSuite(5)
				for name, w := range want {
					gg := got[name]
					for i := range w {
						for k := range w[i] {
							if w[i][k] != gg[i][k] {
								select {
								case fail <- fmt.Sprintf("kernel %s limb %d coeff %d corrupted under concurrency", name, i, k):
								default:
								}
								return
							}
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(fail)
	for e := range fail {
		t.Error(e)
	}
}

// measureAllocs counts heap allocations across runs of f on the current
// goroutine AND every helper goroutine (testing.AllocsPerRun pins GOMAXPROCS
// to 1 for the measurement, which would force the scheduler onto its serial
// path and measure nothing — so this reads the global counter instead).
func measureAllocs(warm, runs int, f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.GC()
	// Warm AFTER the GCs: collection empties the sync.Pool tiers (poly arena,
	// scratch overflow), so warming first would leave the measured region to
	// repopulate them.
	for i := 0; i < warm; i++ {
		f()
	}
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// TestParallelKernelsAllocFree pins 0 allocs/op on the parallel dispatch
// path: op-coded jobs from the free list, resident workers, shard-routed
// scratch — nothing may allocate in steady state with workers > 1.
func TestParallelKernelsAllocFree(t *testing.T) {
	f := cachedSchedFixture(t)
	withParallel(t, 4)
	r := f.rq
	r.SetWorkers(4)
	defer r.SetWorkers(1)
	level := r.MaxLevel()
	a := randPoly(r, level, 3)
	as := r.NewPoly(level)
	r.ShoupConstants(level, a, as)
	out := r.NewPoly(level)
	outA := r.NewPoly(level)
	outP := f.rp.NewPoly(f.rp.MaxLevel())
	d := []*Poly{randPoly(r, level, 10), randPoly(r, level, 11), randPoly(r, level, 12)}
	kB := []*Poly{randPoly(r, level, 20), randPoly(r, level, 21), randPoly(r, level, 22)}
	kA := []*Poly{randPoly(r, level, 30), randPoly(r, level, 31), randPoly(r, level, 32)}

	kernels := map[string]func(){
		"ntt": func() { r.NTT(level, a) },
		"add": func() { r.Add(level, a, a, out) },
		"mulshoup": func() {
			r.MulCoeffsShoup(level, a, a, as, out)
		},
		"automorphism": func() {
			r.AutomorphismNTT(level, a, 5, out)
		},
		"modup":     func() { f.ext.ModUp(level, a, outP) },
		"moddown":   func() { f.ext.ModDown(level, a, outP, out) },
		"rescale":   func() { f.ext.RescaleByLastModulus(level, a, out) },
		"moddown-t": func() { f.extT.ModDown(level, a, outP, out) },
		"rescale-t": func() { f.extT.RescaleByLastModulus(level, a, out) },
		"ksacc":     func() { r.KSAccumulate(level, d, kB, kA, 5, true, out, outA) },
	}
	for name, fn := range kernels {
		const runs = 50
		// Warm runs prime workers, the job free list, the automorphism perm
		// cache and every scratch shard. The assertion is amortized: goroutines
		// migrating across Ps can trigger O(1) sync.Pool per-P chain growth
		// (a few mallocs total, independent of run count), but any per-op
		// allocation shows up as >= runs. Serial-path exact-0 pins live in
		// alloc_test.go; this guards the parallel dispatch path. Under -race
		// sync.Pool drops Puts by design, so the kernels still run (for the
		// race detector) but the count is not asserted.
		got := measureAllocs(16, runs, fn)
		if raceEnabled {
			continue
		}
		if got >= runs {
			t.Errorf("%s: %d allocs across %d parallel runs: allocating per op", name, got, runs)
		} else if got != 0 {
			t.Logf("%s: %d residual allocs across %d runs (per-P pool growth)", name, got, runs)
		}
	}
}

// BenchmarkBufPoolContention measures the resident tier under concurrent
// Get/Put traffic from 4 goroutines: "sharded" routes each goroutine to its
// own shard (as the scheduler's partitions do), "single" forces everyone
// through shard 0 (the pre-sharding behavior). The gap is the mutex/cache-
// line contention the sharding exists to kill; on a single-core host the two
// converge, which is itself the honest result.
func BenchmarkBufPoolContention(b *testing.B) {
	const workers = 4
	const words = 1 << 12
	run := func(b *testing.B, sharded bool) {
		var bp BufPool
		old := runtime.GOMAXPROCS(workers)
		defer runtime.GOMAXPROCS(old)
		var wg sync.WaitGroup
		per := b.N/workers + 1
		b.ResetTimer()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				shard := 0
				if sharded {
					shard = w
				}
				for i := 0; i < per; i++ {
					buf := bp.GetShard(shard, words)
					buf[0] = uint64(i)
					bp.PutShard(shard, buf)
				}
			}(w)
		}
		wg.Wait()
	}
	b.Run("single", func(b *testing.B) { run(b, false) })
	b.Run("sharded", func(b *testing.B) { run(b, true) })
}
