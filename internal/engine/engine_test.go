package engine

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"alchemist/internal/arch"
	"alchemist/internal/baseline"
	"alchemist/internal/errs"
	"alchemist/internal/sim"
	"alchemist/internal/trace"
	"alchemist/internal/workload"
)

func testJobs() []Job {
	s := workload.PaperShape()
	cfg := arch.Default()
	return []Job{
		SimJob(cfg, workload.Pmult(s)),
		SimJob(cfg, workload.Hadd(s)),
		SimJob(cfg, workload.Keyswitch(s)),
		SimJob(cfg, workload.Cmult(s)),
		BaselineJob(baseline.SHARP(), workload.Cmult(s)),
	}
}

func TestRunMatchesDirectSimulation(t *testing.T) {
	e := New(WithWorkers(4))
	defer e.Close()
	jobs := testJobs()
	results, err := e.Run(context.Background(), jobs...)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if jobs[i].Arch != nil {
			want, err := sim.Simulate(*jobs[i].Arch, jobs[i].Graph)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r.Sim, want) {
				t.Errorf("job %d (%s): engine result differs from direct simulation", i, want.Name)
			}
		} else {
			want, err := baseline.Simulate(*jobs[i].Baseline, jobs[i].Graph)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r.Baseline, want) {
				t.Errorf("job %d (%s): engine baseline result differs", i, want.Name)
			}
		}
	}
}

func TestCacheHitReturnsIdenticalResult(t *testing.T) {
	e := New(WithWorkers(2))
	defer e.Close()
	job := SimJob(arch.Default(), workload.Cmult(workload.PaperShape()))

	cold := <-e.Submit(context.Background(), job)
	if cold.Err != nil {
		t.Fatal(cold.Err)
	}
	if cold.Cached {
		t.Fatal("first run reported as cached")
	}
	warm := <-e.Submit(context.Background(), job)
	if warm.Err != nil {
		t.Fatal(warm.Err)
	}
	if !warm.Cached {
		t.Fatal("second run of an identical job missed the cache")
	}
	if !reflect.DeepEqual(cold.Sim, warm.Sim) {
		t.Fatal("cache hit returned a different Result than the cold run")
	}
	st := e.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("stats: hits=%d misses=%d, want 1/1", st.CacheHits, st.CacheMisses)
	}
	if st.HitRate() != 0.5 {
		t.Fatalf("hit rate %v, want 0.5", st.HitRate())
	}
}

func TestSharedCacheAcrossEngines(t *testing.T) {
	cache := NewCache()
	job := SimJob(arch.Default(), workload.Pmult(workload.PaperShape()))

	e1 := New(WithWorkers(1), WithCache(cache))
	r1 := <-e1.Submit(context.Background(), job)
	e1.Close()
	if r1.Err != nil || r1.Cached {
		t.Fatalf("first engine: err=%v cached=%v", r1.Err, r1.Cached)
	}

	e2 := New(WithWorkers(1), WithCache(cache))
	defer e2.Close()
	r2 := <-e2.Submit(context.Background(), job)
	if r2.Err != nil {
		t.Fatal(r2.Err)
	}
	if !r2.Cached {
		t.Fatal("second engine missed the shared cache")
	}
	if cache.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", cache.Len())
	}
}

func TestCanceledContext(t *testing.T) {
	e := New(WithWorkers(1))
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := <-e.Submit(ctx, SimJob(arch.Default(), workload.Pmult(workload.PaperShape())))
	if !errors.Is(res.Err, errs.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", res.Err)
	}
	if !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("err = %v should still match context.Canceled", res.Err)
	}
}

func TestPerJobTimeout(t *testing.T) {
	e := New(WithWorkers(1))
	defer e.Close()
	// A one-nanosecond budget expires before the several-thousand-op PBS
	// simulation can finish, deterministically.
	job := SimJob(arch.Default(), workload.PBSBatch(workload.PBSSetI(), 128))
	job.Timeout = time.Nanosecond
	res := <-e.Submit(context.Background(), job)
	if !errors.Is(res.Err, errs.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", res.Err)
	}
}

func TestBadJobs(t *testing.T) {
	e := New(WithWorkers(1))
	defer e.Close()
	g := workload.Pmult(workload.PaperShape())

	res := <-e.Submit(context.Background(), Job{Graph: g})
	if !errors.Is(res.Err, errs.ErrBadConfig) {
		t.Fatalf("model-less job: err = %v, want ErrBadConfig", res.Err)
	}

	bad := arch.Default()
	bad.Units = 0
	res = <-e.Submit(context.Background(), SimJob(bad, g))
	if !errors.Is(res.Err, errs.ErrBadConfig) {
		t.Fatalf("invalid arch: err = %v, want ErrBadConfig", res.Err)
	}

	cyclic := &trace.Graph{Name: "cyclic", Ops: []*trace.Op{
		{ID: 0, Kind: trace.KindEWAdd, N: 64, Channels: 1, Polys: 1, Deps: []int{0}},
	}}
	res = <-e.Submit(context.Background(), SimJob(arch.Default(), cyclic))
	if !errors.Is(res.Err, errs.ErrGraphCycle) {
		t.Fatalf("cyclic graph: err = %v, want ErrGraphCycle", res.Err)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	e := New(WithWorkers(1))
	e.Close()
	res := <-e.Submit(context.Background(), SimJob(arch.Default(), workload.Pmult(workload.PaperShape())))
	if !errors.Is(res.Err, errs.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", res.Err)
	}
}

func TestEvaluateOneShot(t *testing.T) {
	job := SimJob(arch.Default(), workload.Pmult(workload.PaperShape()))
	res := Evaluate(context.Background(), job)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Sim.Cycles != 1056 {
		t.Fatalf("Pmult %d cycles, want 1056", res.Sim.Cycles)
	}

	cache := NewCache()
	first := Evaluate(context.Background(), job, WithCache(cache))
	second := Evaluate(context.Background(), job, WithCache(cache))
	if first.Cached || !second.Cached {
		t.Fatalf("one-shot shared cache: first.Cached=%v second.Cached=%v", first.Cached, second.Cached)
	}
}

func TestStatsCounters(t *testing.T) {
	e := New(WithWorkers(2))
	defer e.Close()
	jobs := testJobs()
	if _, err := e.Run(context.Background(), jobs...); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Submitted != int64(len(jobs)) || st.Completed != int64(len(jobs)) {
		t.Fatalf("submitted/completed %d/%d, want %d/%d", st.Submitted, st.Completed, len(jobs), len(jobs))
	}
	if st.Failed != 0 {
		t.Fatalf("failed = %d, want 0", st.Failed)
	}
	if st.TotalWall <= 0 {
		t.Fatal("total wall clock not recorded")
	}
	if st.Workers != 2 {
		t.Fatalf("workers = %d, want 2", st.Workers)
	}
}

// TestConcurrentSubmitsAndCancellation is the race-detector stress: many
// goroutines submitting against a small pool while the sweep is canceled
// midway. Every submission must still deliver exactly one result.
func TestConcurrentSubmitsAndCancellation(t *testing.T) {
	e := New(WithWorkers(2))
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	s := workload.PaperShape()
	graphs := []*trace.Graph{workload.Pmult(s), workload.Hadd(s), workload.Cmult(s)}

	const submitters = 8
	const perSubmitter = 6
	var wg sync.WaitGroup
	var delivered atomic64
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perSubmitter; j++ {
				res := <-e.Submit(ctx, SimJob(arch.Default(), graphs[(i+j)%len(graphs)]))
				if res.Err != nil && !errors.Is(res.Err, errs.ErrCanceled) {
					t.Errorf("unexpected error: %v", res.Err)
				}
				delivered.add(1)
			}
		}(i)
	}
	time.Sleep(2 * time.Millisecond)
	cancel()
	wg.Wait()
	if got := delivered.load(); got != submitters*perSubmitter {
		t.Fatalf("delivered %d results, want %d", got, submitters*perSubmitter)
	}
	st := e.Stats()
	if st.Completed != st.Submitted {
		t.Fatalf("completed %d != submitted %d", st.Completed, st.Submitted)
	}
}

// atomic64 avoids importing sync/atomic twice under a name the engine file
// already uses.
type atomic64 struct {
	mu sync.Mutex
	v  int64
}

func (a *atomic64) add(d int64) { a.mu.Lock(); a.v += d; a.mu.Unlock() }
func (a *atomic64) load() int64 { a.mu.Lock(); defer a.mu.Unlock(); return a.v }

// TestParallelEqualsSerial asserts the engine's defining property: the same
// batch evaluated on one worker and on many produces element-wise identical
// results.
func TestParallelEqualsSerial(t *testing.T) {
	jobs := testJobs()
	serialEng := New(WithWorkers(1))
	serial, err := serialEng.Run(context.Background(), jobs...)
	serialEng.Close()
	if err != nil {
		t.Fatal(err)
	}
	parallelEng := New(WithWorkers(8))
	parallel, err := parallelEng.Run(context.Background(), jobs...)
	parallelEng.Close()
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if !reflect.DeepEqual(serial[i].Sim, parallel[i].Sim) ||
			!reflect.DeepEqual(serial[i].Baseline, parallel[i].Baseline) {
			t.Errorf("job %d: parallel result differs from serial", i)
		}
	}
}
