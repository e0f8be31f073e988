package tfhe

// Context-first, options-based bootstrapping API. A Bootstrapper pins the
// per-call state — test vector, key-switch key, worker count, micro-batch
// width — and exposes three execution shapes of the one trimmed FFT
// datapath (brfft.go):
//
//	Run(ctx, ct)        one bootstrap, allocation-free in steady state
//	RunBatch(ctx, cts)  batched: key material streams once per micro-batch
//	Stream(ctx)         cascaded stage pipeline over bounded channels
//
// Stream wires the four bootstrap stages — mod-switch → blind-rotate →
// sample-extract → key-switch — as resident worker goroutines connected by
// bounded channels, so multiple ciphertexts are in flight at different
// stages and the heavy stages amortize key streaming across micro-batches.
// Intermediate buffers (Z_{2N} exponents, TRLWE accumulators, extracted
// samples) are arena-borrowed in one stage and released in the next; every
// channel send is an ownership transfer annotated for the arena-lifetime
// vet rule.

import (
	"context"
	"fmt"
	"sync"
)

// bootConfig carries the Bootstrapper tunables.
type bootConfig struct {
	workers int
	batch   int
	tv      TorusPoly
}

// Option configures a Bootstrapper, following the engine package's idiom.
type Option func(*bootConfig)

// WithWorkers sets the number of concurrent blind-rotate workers used by
// RunBatch and Stream (values below 1 are clamped to 1). Run ignores it.
func WithWorkers(n int) Option {
	return func(c *bootConfig) {
		if n < 1 {
			n = 1
		}
		c.workers = n
	}
}

// WithTestVector pins the default test vector (length N). Jobs may still
// override it per call (RunWith, Job.TV). Defaults to the gate test vector
// with μ = 1/8.
func WithTestVector(tv TorusPoly) Option {
	return func(c *bootConfig) { c.tv = tv }
}

// WithBatchWidth sets the micro-batch width used by RunBatch and the
// streaming stages to amortize bootstrapping-key streaming (default 8,
// clamped to [1, 64]).
func WithBatchWidth(n int) Option {
	return func(c *bootConfig) {
		if n < 1 {
			n = 1
		}
		if n > 64 {
			n = 64
		}
		c.batch = n
	}
}

// Bootstrapper executes programmable bootstraps against one pinned
// configuration. It is safe for concurrent use: all key material is
// read-only and every scratch buffer is arena-scoped per call.
type Bootstrapper struct {
	s   *Scheme
	cfg bootConfig

	chunks sync.Pool // *chunkState batch scratch bundles
}

// Bootstrapper builds a bootstrapper over this scheme's keys. The zero
// configuration bootstraps with the gate test vector (μ = 1/8), the
// scheme's key-switch key, one worker, and micro-batches of 8. Every
// configuration key-switches with the trimmed p.TrimKs() digits.
func (s *Scheme) Bootstrapper(opts ...Option) (*Bootstrapper, error) {
	cfg := bootConfig{workers: 1, batch: 8}
	for _, o := range opts {
		o(&cfg)
	}
	p := s.Params
	if cfg.tv == nil {
		cfg.tv = s.GateTestVector(TorusFromDouble(0.125))
	}
	if len(cfg.tv) != p.N {
		return nil, fmt.Errorf("tfhe: test vector length %d, want N=%d", len(cfg.tv), p.N)
	}
	s.pairBootKey() // generate the pair key up front, not under first-call latency
	return &Bootstrapper{s: s, cfg: cfg}, nil
}

// sharedBootstrapper returns the scheme-shared default bootstrapper: one
// pinned gate test vector reused by every gate evaluation, while EvalIntLUT
// passes its LUT per call through RunWith.
func (s *Scheme) sharedBootstrapper() (*Bootstrapper, error) {
	s.bootMu.Lock()
	defer s.bootMu.Unlock()
	if s.boot == nil {
		b, err := s.Bootstrapper()
		if err != nil {
			return nil, err
		}
		s.boot = b
	}
	return s.boot, nil
}

// Recycle returns an output sample obtained from Run/RunBatch/Stream to the
// scheme's arena. Optional: dropped samples are reclaimed by the GC; hot
// loops recycle to stay allocation-free.
func (b *Bootstrapper) Recycle(c *LweSample) { b.s.releaseLwe(c) }

// Run performs one programmable bootstrap with the pinned test vector.
// The returned sample is arena-pooled: pass it to Recycle when done to keep
// steady-state bootstrapping at zero allocations, or drop it to the GC.
func (b *Bootstrapper) Run(ctx context.Context, ct *LweSample) (*LweSample, error) {
	return b.RunWith(ctx, ct, nil)
}

// RunWith is Run with a per-call test vector override (nil = pinned).
func (b *Bootstrapper) RunWith(ctx context.Context, ct *LweSample, tv TorusPoly) (*LweSample, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := b.checkJob(ct, tv); err != nil {
		return nil, err
	}
	if tv == nil {
		tv = b.cfg.tv
	}
	s := b.s
	p := s.Params
	abar := s.borrowAbar()
	modSwitchInto(ct, 2*p.N, abar)
	acc := s.PM.borrowTrlwe(p.K)
	scr := s.borrowFFTScratch()
	s.blindRotateFFTOne(abar, tv, acc, scr)
	s.releaseFFTScratch(scr)
	s.releaseAbar(abar)
	ext := s.borrowLwe(p.K * p.N)
	SampleExtractInto(acc, ext)
	s.PM.releaseTrlwe(acc)
	out := s.borrowLwe(p.NLwe)
	s.keySwitchInto(s.KSK, ext, p.TrimKs(), out)
	s.releaseLwe(ext)
	return out, nil //alchemist:owns pooled output transfers to the caller; Bootstrapper.Recycle returns it to the arena
}

func (b *Bootstrapper) checkJob(ct *LweSample, tv TorusPoly) error {
	if ct == nil || len(ct.A) != b.s.Params.NLwe {
		return fmt.Errorf("tfhe: bootstrap input dimension %d, want NLwe=%d", len(ct.A), b.s.Params.NLwe)
	}
	if tv != nil && len(tv) != b.s.Params.N {
		return fmt.Errorf("tfhe: test vector length %d, want N=%d", len(tv), b.s.Params.N)
	}
	return nil
}

// chunkState is the reusable scratch for one micro-batch: exponent
// vectors, accumulators, extracted samples and the blind-rotate bundle.
// Buffers stay attached while the state is pooled, mirroring fftScratch.
type chunkState struct {
	abars []IntPoly
	tvs   []TorusPoly
	accs  []*TrlweSample
	exts  []*LweSample
	outs  []*LweSample
	brIn  [][]int32
	scr   *fftScratch
}

func (b *Bootstrapper) borrowChunk() *chunkState {
	if v := b.chunks.Get(); v != nil {
		return v.(*chunkState)
	}
	s := b.s
	p := s.Params
	w := b.cfg.batch
	cs := &chunkState{
		tvs:   make([]TorusPoly, w),
		outs:  make([]*LweSample, w),
		brIn:  make([][]int32, w),
		abars: make([]IntPoly, 0, w),
		accs:  make([]*TrlweSample, 0, w),
		exts:  make([]*LweSample, 0, w),
	}
	for i := 0; i < w; i++ {
		cs.abars = append(cs.abars, s.borrowAbar())      //alchemist:owns held by the chunk bundle; releaseChunk parks the bundle with its buffers attached
		cs.accs = append(cs.accs, s.PM.borrowTrlwe(p.K)) //alchemist:owns held by the chunk bundle; releaseChunk parks the bundle with its buffers attached
		cs.exts = append(cs.exts, s.borrowLwe(p.K*p.N))  //alchemist:owns held by the chunk bundle; releaseChunk parks the bundle with its buffers attached
	}
	cs.scr = s.borrowFFTScratch() //alchemist:owns held by the chunk bundle; releaseChunk parks the bundle with its buffers attached
	return cs
}

func (b *Bootstrapper) releaseChunk(cs *chunkState) {
	for i := range cs.tvs {
		cs.tvs[i] = nil
		cs.outs[i] = nil
		cs.brIn[i] = nil
	}
	b.chunks.Put(cs)
}

// runChunk bootstraps cts[lo:hi] into outs[lo:hi] through the batched
// kernels. tvs[i] == nil selects the pinned test vector.
func (b *Bootstrapper) runChunk(cts []*LweSample, tvs []TorusPoly, outs []*LweSample) error {
	s := b.s
	p := s.Params
	j := len(cts)
	cs := b.borrowChunk()
	defer b.releaseChunk(cs)
	for i := 0; i < j; i++ {
		tv := b.cfg.tv
		if tvs != nil && tvs[i] != nil {
			tv = tvs[i]
		}
		if err := b.checkJob(cts[i], tv); err != nil {
			return err
		}
		cs.tvs[i] = tv
		modSwitchInto(cts[i], 2*p.N, cs.abars[i])
		cs.brIn[i] = cs.abars[i]
	}
	s.blindRotateFFTBatch(cs.brIn[:j], cs.tvs[:j], cs.accs[:j], cs.scr)
	for i := 0; i < j; i++ {
		SampleExtractInto(cs.accs[i], cs.exts[i])
		cs.outs[i] = s.borrowLwe(p.NLwe) //alchemist:owns pooled outputs transfer to the caller via outs; Bootstrapper.Recycle returns them
	}
	s.keySwitchBatchInto(s.KSK, cs.exts[:j], p.TrimKs(), cs.outs[:j])
	copy(outs, cs.outs[:j])
	return nil
}

// RunBatch bootstraps independent ciphertexts with the pinned test vector,
// preserving input order. Jobs are grouped into micro-batches so the
// bootstrapping and key-switch keys stream from memory once per batch, and
// micro-batches fan out across WithWorkers goroutines. Outputs are pooled
// samples (see Recycle).
func (b *Bootstrapper) RunBatch(ctx context.Context, cts []*LweSample) ([]*LweSample, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	outs := make([]*LweSample, len(cts))
	w := b.cfg.batch
	type span struct{ lo, hi int }
	spans := make(chan span, len(cts)/w+1)
	for lo := 0; lo < len(cts); lo += w {
		hi := lo + w
		if hi > len(cts) {
			hi = len(cts)
		}
		spans <- span{lo, hi}
	}
	close(spans)
	workers := b.cfg.workers
	if workers > len(outs)/w+1 {
		workers = len(outs)/w + 1
	}
	var wg sync.WaitGroup
	errMu := sync.Mutex{}
	var firstErr error
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sp := range spans {
				if ctx.Err() != nil {
					return
				}
				if err := b.runChunk(cts[sp.lo:sp.hi], nil, outs[sp.lo:sp.hi]); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return outs, nil
}

// Streaming pipeline -------------------------------------------------------

// Job is one streaming bootstrap request. TV overrides the pinned test
// vector when non-nil. Tag is echoed in the matching Result (stages may
// reorder completions when WithWorkers > 1).
type Job struct {
	Tag int
	Ct  *LweSample
	TV  TorusPoly
}

// Result is one completed streaming bootstrap. Out is a pooled sample
// (Recycle when done); Err carries per-job validation failures.
type Result struct {
	Tag int
	Out *LweSample
	Err error
}

// streamToken is the value flowing between pipeline stages. Arena-backed
// fields are owned by exactly one stage at a time; a channel send transfers
// ownership downstream.
type streamToken struct {
	tag  int
	err  error
	tv   TorusPoly
	abar IntPoly
	acc  *TrlweSample
	ext  *LweSample
}

// Stream starts the resident stage pipeline and returns its intake and
// result channels. Close the intake channel to finish: the result channel
// closes once every accepted job has drained. Cancelling the context stops
// the pipeline promptly: in-flight jobs are dropped (their scratch returns
// to the arenas), the result channel closes, and jobs never read from the
// intake are ignored — senders should select on ctx.Done() alongside the
// send, as the harness stops reading the intake after cancellation.
//
// Stage layout: mod-switch → blind-rotate (WithWorkers goroutines,
// micro-batched) → sample-extract → key-switch (micro-batched). Channels
// are bounded by the micro-batch width, so at most a few batches are in
// flight and memory stays flat no matter how fast the producer is.
func (b *Bootstrapper) Stream(ctx context.Context) (chan<- Job, <-chan Result) {
	depth := b.cfg.batch * 2
	jobs := make(chan Job, depth)
	c1 := make(chan streamToken, depth)
	c2 := make(chan streamToken, depth)
	c3 := make(chan streamToken, depth)
	results := make(chan Result, depth)

	go b.stageModSwitch(ctx, jobs, c1)
	var rot sync.WaitGroup
	for g := 0; g < b.cfg.workers; g++ {
		rot.Add(1)
		go func() {
			defer rot.Done()
			b.stageBlindRotate(ctx, c1, c2)
		}()
	}
	go func() {
		rot.Wait()
		close(c2)
	}()
	go b.stageExtract(ctx, c2, c3)
	go b.stageKeySwitch(ctx, c3, results)
	return jobs, results
}

// stageModSwitch validates jobs and discretizes phases to Z_{2N}.
func (b *Bootstrapper) stageModSwitch(ctx context.Context, in <-chan Job, out chan<- streamToken) {
	s := b.s
	p := s.Params
	defer close(out)
	for {
		var job Job
		var ok bool
		select {
		case <-ctx.Done():
			return
		case job, ok = <-in:
			if !ok {
				return
			}
		}
		tok := streamToken{tag: job.Tag, tv: job.TV}
		if tok.tv == nil {
			tok.tv = b.cfg.tv
		}
		if err := b.checkJob(job.Ct, job.TV); err != nil {
			tok.err = err
		} else {
			tok.abar = s.borrowAbar() //alchemist:owns tracked in the token; the blind-rotate stage releases it (or the cancel path below)
			modSwitchInto(job.Ct, 2*p.N, tok.abar)
		}
		select {
		case <-ctx.Done():
			s.releaseAbar(tok.abar)
			return
		case out <- tok: // token buffers transfer to the blind-rotate stage
		}
	}
}

// collectBatch receives one token (blocking) then drains whatever else is
// immediately available, up to the micro-batch width.
func collectBatch(ctx context.Context, in <-chan streamToken, buf []streamToken) ([]streamToken, bool) {
	buf = buf[:0]
	select {
	case <-ctx.Done():
		return buf, false
	case tok, ok := <-in:
		if !ok {
			return buf, false
		}
		buf = append(buf, tok)
	}
	for len(buf) < cap(buf) {
		select {
		case tok, ok := <-in:
			if !ok {
				return buf, true
			}
			buf = append(buf, tok)
		default:
			return buf, true
		}
	}
	return buf, true
}

// stageBlindRotate is the heavy stage: micro-batched pair-bundled blind
// rotation.
func (b *Bootstrapper) stageBlindRotate(ctx context.Context, in <-chan streamToken, out chan<- streamToken) {
	s := b.s
	p := s.Params
	buf := make([]streamToken, 0, b.cfg.batch)
	brAbar := make([][]int32, 0, b.cfg.batch)
	brTv := make([]TorusPoly, 0, b.cfg.batch)
	brAcc := make([]*TrlweSample, 0, b.cfg.batch)
	scr := s.borrowFFTScratch() // held for the worker's lifetime
	defer s.releaseFFTScratch(scr)
	release := func(toks []streamToken) {
		for i := range toks {
			s.releaseAbar(toks[i].abar)
			if toks[i].acc != nil {
				s.PM.releaseTrlwe(toks[i].acc)
			}
		}
	}
	for {
		toks, alive := collectBatch(ctx, in, buf)
		if len(toks) > 0 && ctx.Err() == nil {
			brAbar, brTv, brAcc = brAbar[:0], brTv[:0], brAcc[:0]
			for i := range toks {
				if toks[i].err != nil {
					continue
				}
				toks[i].acc = s.PM.borrowTrlwe(p.K) //alchemist:owns tracked in the token; transferred downstream or released on cancellation
				brAbar = append(brAbar, toks[i].abar)
				brTv = append(brTv, toks[i].tv)
				brAcc = append(brAcc, toks[i].acc)
			}
			if len(brAcc) > 0 {
				s.blindRotateFFTBatch(brAbar, brTv, brAcc, scr)
			}
			for i := range toks {
				s.releaseAbar(toks[i].abar)
				toks[i].abar = nil
				select {
				case <-ctx.Done():
					release(toks[i:])
					return
				case out <- toks[i]: // token buffers transfer to the extract stage
				}
			}
		} else if len(toks) > 0 {
			release(toks)
		}
		if !alive || ctx.Err() != nil {
			return
		}
		buf = toks
	}
}

// stageExtract turns accumulators into extracted LWE samples.
func (b *Bootstrapper) stageExtract(ctx context.Context, in <-chan streamToken, out chan<- streamToken) {
	s := b.s
	p := s.Params
	defer close(out)
	for tok := range in {
		if ctx.Err() != nil {
			if tok.acc != nil {
				s.PM.releaseTrlwe(tok.acc)
			}
			continue // keep draining so upstream sends never wedge
		}
		if tok.err == nil {
			tok.ext = s.borrowLwe(p.K * p.N) //alchemist:owns tracked in the token; transferred downstream or released on cancellation
			SampleExtractInto(tok.acc, tok.ext)
			s.PM.releaseTrlwe(tok.acc)
			tok.acc = nil
		}
		select {
		case <-ctx.Done():
			s.releaseLwe(tok.ext)
			return
		case out <- tok: // token buffers transfer to the key-switch stage
		}
	}
}

// stageKeySwitch micro-batches the final key switch and emits Results.
func (b *Bootstrapper) stageKeySwitch(ctx context.Context, in <-chan streamToken, out chan<- Result) {
	s := b.s
	p := s.Params
	buf := make([]streamToken, 0, b.cfg.batch)
	exts := make([]*LweSample, 0, b.cfg.batch)
	outs := make([]*LweSample, 0, b.cfg.batch)
	defer close(out)
	for {
		toks, alive := collectBatch(ctx, in, buf)
		if len(toks) > 0 && ctx.Err() == nil {
			exts, outs = exts[:0], outs[:0]
			for i := range toks {
				if toks[i].err != nil {
					continue
				}
				exts = append(exts, toks[i].ext)
				outs = append(outs, s.borrowLwe(p.NLwe)) //alchemist:owns pooled outputs transfer to the Result channel; Bootstrapper.Recycle returns them
			}
			s.keySwitchBatchInto(s.KSK, exts, p.TrimKs(), outs)
			oi := 0
			for i := range toks {
				res := Result{Tag: toks[i].tag, Err: toks[i].err}
				if toks[i].err == nil {
					s.releaseLwe(toks[i].ext)
					toks[i].ext = nil
					res.Out = outs[oi]
					oi++
				}
				select {
				case <-ctx.Done():
					for ; oi < len(outs); oi++ {
						s.releaseLwe(outs[oi])
					}
					for j := i; j < len(toks); j++ {
						s.releaseLwe(toks[j].ext)
					}
					return
				case out <- res:
				}
			}
		} else if len(toks) > 0 {
			for i := range toks {
				s.releaseLwe(toks[i].ext)
			}
		}
		if !alive || ctx.Err() != nil {
			return
		}
		buf = toks
	}
}
