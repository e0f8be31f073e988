// Package engine is the concurrent batch-evaluation layer over the two
// cycle simulators (internal/sim for Alchemist, internal/baseline for the
// modular accelerators). It exists because the paper's whole evaluation —
// every table, figure, ablation sweep and cross-check — is a pile of
// independent (config, graph) simulations: the SoK on FHE accelerators
// argues end-to-end throughput is set by the software pipeline feeding the
// model as much as by the model itself, and a single blocking Simulate call
// per artifact wastes every core but one.
//
// An Engine owns a bounded worker pool (default runtime.NumCPU()), a
// memoization cache keyed by the graph's canonical fingerprint plus the full
// hardware configuration, and an observable stats snapshot. Jobs are
// submitted with a context; cancellation and per-job timeouts are honored
// at queue pop and while a simulation is in flight (the pure-Go simulation
// itself cannot be preempted, but its result is abandoned and the caller
// returns promptly). Simulations are deterministic, so parallel evaluation
// returns byte-identical results to serial evaluation — a property
// internal/bench's report regeneration relies on and tests.
//
// Results returned by the engine may be cache-shared between callers and
// must be treated as read-only.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"alchemist/internal/arch"
	"alchemist/internal/baseline"
	"alchemist/internal/errs"
	"alchemist/internal/sim"
	"alchemist/internal/streamcheck"
	"alchemist/internal/tokens"
	"alchemist/internal/trace"
)

// Job is one simulation request: a workload graph on exactly one hardware
// model (Arch for the Alchemist simulator, Baseline for a modular design).
type Job struct {
	// Arch selects the Alchemist cycle simulator.
	Arch *arch.Config
	// Baseline selects the modular-accelerator model.
	Baseline *baseline.Config
	// Graph is the workload to run.
	Graph *trace.Graph
	// Timeout bounds this job alone; 0 inherits the engine default.
	Timeout time.Duration
}

// SimJob builds an Alchemist simulation job.
func SimJob(cfg arch.Config, g *trace.Graph) Job { return Job{Arch: &cfg, Graph: g} }

// BaselineJob builds a modular-baseline simulation job.
func BaselineJob(cfg baseline.Config, g *trace.Graph) Job { return Job{Baseline: &cfg, Graph: g} }

// Result is one completed (or failed) job. Exactly one of Sim/Baseline is
// meaningful, matching the job's model; Err classifies failures via the
// errs sentinels (errors.Is against ErrCanceled, ErrTimeout, ErrBadConfig,
// ErrGraphCycle).
type Result struct {
	Job      Job
	Sim      sim.Result
	Baseline baseline.Result
	Err      error
	// Cached reports that the result was served from the memo cache (or
	// deduplicated onto another in-flight computation of the same job).
	Cached bool
	// Wall is the caller-observed latency of this job.
	Wall time.Duration
}

// Stats is an observable snapshot of an engine's activity.
type Stats struct {
	Workers     int
	Submitted   int64
	Completed   int64 // includes failures
	Failed      int64
	CacheHits   int64
	CacheMisses int64
	QueueDepth  int           // jobs enqueued but not yet picked up
	TotalWall   time.Duration // Σ per-job wall clock across completed jobs
}

// HitRate returns the cache hit fraction (0 when nothing was looked up).
func (s Stats) HitRate() float64 {
	if n := s.CacheHits + s.CacheMisses; n > 0 {
		return float64(s.CacheHits) / float64(n)
	}
	return 0
}

// config carries the tunables shared by Engine and the one-shot Evaluate.
type config struct {
	workers  int
	timeout  time.Duration
	cache    *Cache
	cacheSet bool
	verify   bool
}

// Option configures an Engine (or a one-shot Evaluate call).
type Option func(*config)

// WithWorkers sets the worker-pool size (default runtime.NumCPU(); values
// below 1 are clamped to 1). One-shot Evaluate calls ignore it.
func WithWorkers(n int) Option {
	return func(c *config) {
		if n < 1 {
			n = 1
		}
		c.workers = n
	}
}

// WithTimeout sets the default per-job timeout (0 = none).
func WithTimeout(d time.Duration) Option {
	return func(c *config) { c.timeout = d }
}

// WithCache injects a memo cache, which may be shared between engines and
// one-shot calls. Passing nil disables caching. Without this option every
// engine owns a fresh private cache — there is no package-global state to
// race on.
func WithCache(cache *Cache) Option {
	return func(c *config) { c.cache = cache; c.cacheSet = true }
}

// WithVerifyStreams makes every Alchemist job compile its graph to a
// Meta-OP program and statically verify it (internal/streamcheck) before
// the timing model runs. A job whose compiled program violates the §5.3
// contract fails with an error wrapping errs.ErrIllegalStream. Baseline
// jobs have no Meta-OP streams and are unaffected. Verified and unverified
// evaluations memoize under distinct cache keys, so engines sharing a cache
// never serve each other the wrong policy's outcome.
func WithVerifyStreams(on bool) Option {
	return func(c *config) { c.verify = on }
}

func buildConfig(opts []Option) config {
	c := config{workers: runtime.NumCPU()}
	for _, o := range opts {
		o(&c)
	}
	if !c.cacheSet {
		c.cache = NewCache()
	}
	return c
}

// task is one queued job awaiting a worker.
type task struct {
	ctx context.Context
	job Job
	out chan Result // buffered (1): workers never block on delivery
}

// Engine runs simulation jobs on a bounded worker pool.
type Engine struct {
	cfg   config
	tasks chan *task
	wg    sync.WaitGroup

	mu     sync.RWMutex // guards closed vs. in-flight submissions
	closed bool

	submitted   atomic.Int64
	completed   atomic.Int64
	failed      atomic.Int64
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	wallNanos   atomic.Int64
}

// New starts an engine. Callers own its lifecycle and should Close it when
// done; two engines in one process are fully independent unless they share
// a cache via WithCache.
func New(opts ...Option) *Engine {
	e := &Engine{cfg: buildConfig(opts)}
	// Two queued jobs per worker: each worker finds its next job waiting
	// when it finishes one, and Submit applies back-pressure past that.
	e.tasks = make(chan *task, 2*e.cfg.workers)
	e.wg.Add(e.cfg.workers)
	for i := 0; i < e.cfg.workers; i++ {
		go e.worker()
	}
	return e
}

// Close stops the workers after the queue drains. Submissions after Close
// fail with ErrCanceled. Close is idempotent.
func (e *Engine) Close() {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		close(e.tasks)
	}
	e.mu.Unlock()
	e.wg.Wait()
}

func (e *Engine) worker() {
	defer e.wg.Done()
	for t := range e.tasks {
		// Hold one compute token per in-flight job so engine-level job
		// parallelism and ring-level limb parallelism draw from the same
		// budget: while k jobs run, concurrent ring kernels see k fewer
		// helper tokens and shrink accordingly instead of oversubscribing
		// the machine. Acquisition never blocks — a zero grant just means
		// the ring side is already using the budget, and this job runs
		// uncounted rather than stall the queue (the pool is bounded by
		// workers anyway).
		g := tokens.Acquire(1)
		res := run(t.ctx, t.job, e.cfg, &e.cacheHits, &e.cacheMisses)
		tokens.Release(g)
		e.completed.Add(1)
		if res.Err != nil {
			e.failed.Add(1)
		}
		e.wallNanos.Add(int64(res.Wall))
		t.out <- res
	}
}

// Submit enqueues one job and returns a channel that will deliver exactly
// one Result. Enqueueing blocks when the queue is full; a canceled context
// (or a closed engine) delivers an ErrCanceled result instead.
func (e *Engine) Submit(ctx context.Context, job Job) <-chan Result {
	out := make(chan Result, 1)
	e.submitted.Add(1)
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		e.deliverFailure(out, job, fmt.Errorf("engine: submit on closed engine: %w", errs.ErrCanceled))
		return out
	}
	t := &task{ctx: ctx, job: job, out: out}
	select {
	case e.tasks <- t:
		e.mu.RUnlock()
	case <-ctx.Done():
		e.mu.RUnlock()
		e.deliverFailure(out, job, fmt.Errorf("engine: submit: %w", wrapCtxErr(ctx.Err())))
	}
	return out
}

func (e *Engine) deliverFailure(out chan Result, job Job, err error) {
	e.completed.Add(1)
	e.failed.Add(1)
	out <- Result{Job: job, Err: err}
}

// Run submits the jobs and waits for all of them, returning results in
// submission order. Individual failures are reported per-result; the
// returned error is the context's (wrapped) error if the batch was cut
// short, nil otherwise.
func (e *Engine) Run(ctx context.Context, jobs ...Job) ([]Result, error) {
	outs := make([]<-chan Result, len(jobs))
	for i, j := range jobs {
		outs[i] = e.Submit(ctx, j)
	}
	results := make([]Result, len(jobs))
	for i, out := range outs {
		results[i] = <-out
	}
	if err := ctx.Err(); err != nil {
		return results, fmt.Errorf("engine: batch: %w", wrapCtxErr(err))
	}
	return results, nil
}

// Stats returns a point-in-time snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Workers:     e.cfg.workers,
		Submitted:   e.submitted.Load(),
		Completed:   e.completed.Load(),
		Failed:      e.failed.Load(),
		CacheHits:   e.cacheHits.Load(),
		CacheMisses: e.cacheMisses.Load(),
		QueueDepth:  len(e.tasks),
		TotalWall:   time.Duration(e.wallNanos.Load()),
	}
}

// Evaluate runs one job without a pool: the context-first single-shot path
// the public alchemist.SimulateContext entry points use. WithWorkers is
// accepted but meaningless here; WithCache makes repeated one-shot calls
// share results. Unlike an Engine, Evaluate defaults to no cache — a single
// call has nothing to memoize against.
func Evaluate(ctx context.Context, job Job, opts ...Option) Result {
	c := buildConfig(opts)
	if !c.cacheSet {
		c.cache = nil
	}
	return run(ctx, job, c, nil, nil)
}

// run executes one job under the config's timeout and cache policy.
func run(ctx context.Context, job Job, cfg config, hits, misses *atomic.Int64) Result {
	start := time.Now()
	finish := func(r Result) Result {
		r.Wall = time.Since(start)
		return r
	}
	res := Result{Job: job}
	if err := validateJob(job); err != nil {
		res.Err = err
		return finish(res)
	}
	if err := ctx.Err(); err != nil {
		res.Err = fmt.Errorf("engine: %w", wrapCtxErr(err))
		return finish(res)
	}
	timeout := job.Timeout
	if timeout == 0 {
		timeout = cfg.timeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	if cfg.cache == nil {
		done := make(chan outcome, 1)
		go func() { done <- compute(job, cfg.verify) }()
		select {
		case o := <-done:
			res.Sim, res.Baseline, res.Err = o.sim, o.base, o.err
		case <-ctx.Done():
		}
		return finish(expired(ctx, res))
	}

	e, leader := cfg.cache.acquire(cacheKey(job, cfg.verify))
	if leader {
		if misses != nil {
			misses.Add(1)
		}
		// The compute goroutine owns publication: even if this caller times
		// out, the entry is eventually filled and later callers hit it.
		go func() {
			e.outcome = compute(job, cfg.verify)
			close(e.done)
		}()
	} else if hits != nil {
		hits.Add(1)
	}
	select {
	case <-e.done:
		res.Sim, res.Baseline, res.Err = e.outcome.sim, e.outcome.base, e.outcome.err
		res.Cached = !leader
	case <-ctx.Done():
	}
	return finish(expired(ctx, res))
}

// expired replaces res with the context's error once ctx is done. When the
// outcome and the deadline are ready together, select picks either case at
// random; checking ctx afterwards makes an expired budget a timeout every
// time, not only when the computation is still running.
func expired(ctx context.Context, res Result) Result {
	if err := ctx.Err(); err != nil {
		return Result{Job: res.Job, Err: fmt.Errorf("engine: %w", wrapCtxErr(err))}
	}
	return res
}

// outcome is the model-layer result of one computation, independent of the
// caller that triggered it.
type outcome struct {
	sim  sim.Result
	base baseline.Result
	err  error
}

func compute(job Job, verify bool) outcome {
	var o outcome
	if job.Arch != nil {
		if verify {
			if _, err := streamcheck.CompileAndVerify(*job.Arch, job.Graph); err != nil {
				o.err = fmt.Errorf("engine: stream verification: %w", err)
				return o
			}
		}
		o.sim, o.err = sim.Simulate(*job.Arch, job.Graph)
	} else {
		o.base, o.err = baseline.Simulate(*job.Baseline, job.Graph)
	}
	return o
}

func validateJob(job Job) error {
	if job.Graph == nil {
		return fmt.Errorf("engine: job has no graph: %w", errs.ErrBadConfig)
	}
	if (job.Arch == nil) == (job.Baseline == nil) {
		return fmt.Errorf("engine: job must set exactly one of Arch and Baseline: %w", errs.ErrBadConfig)
	}
	return nil
}

// wrapCtxErr maps context errors onto the shared sentinels while keeping
// the original error visible to errors.Is.
func wrapCtxErr(err error) error {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: %w", errs.ErrTimeout, err)
	case errors.Is(err, context.Canceled):
		return fmt.Errorf("%w: %w", errs.ErrCanceled, err)
	default:
		return err
	}
}
