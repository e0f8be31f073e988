package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"

	"alchemist/internal/bgv"
	"alchemist/internal/ckks"
	"alchemist/internal/ring"
	"alchemist/internal/rlwe"
	"alchemist/internal/tfhe"
)

// Live benchmarking: unlike the report generators (which regenerate the
// paper's tables from the accelerator model), the live suite measures the
// actual Go kernels this repository executes — NTT/INTT, basis conversion,
// the scheme evaluators and the engine's warm/cold report regeneration —
// and emits ns/op, B/op and allocs/op as JSON. Committed captures
// (BENCH_BASELINE.json before an optimization PR, BENCH_PR4.json after)
// make kernel speedups auditable in-repo:
//
//	alchemist bench -json -out BENCH_PR4.json
//	alchemist bench -json -baseline BENCH_BASELINE.json
//
// The ring benchmarks run at the paper's evaluation shape (N = 2^16 with
// the full 44-level modulus chain, following SHARP); -quick swaps in the
// functional-test parameters so CI smoke runs stay cheap.

// LiveResult is one measured kernel.
type LiveResult struct {
	Name        string  `json:"name"`
	Params      string  `json:"params"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Iters       int     `json:"iters"`
}

// LiveSuite is a full capture, ready for JSON serialization.
type LiveSuite struct {
	Schema     string       `json:"schema"`
	Label      string       `json:"label"`
	GoVersion  string       `json:"go"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Workers    int          `json:"workers"`
	Quick      bool         `json:"quick"`
	Results    []LiveResult `json:"results"`
}

// LiveConfig selects what the live suite measures.
type LiveConfig struct {
	Label   string
	Workers int  // ring worker count (0 = runtime.NumCPU())
	Quick   bool // reduced parameter set for CI smoke runs
	// Best runs every kernel this many times and keeps the fastest pass
	// (1 or 0 = single pass). Tracked captures use best-of-N so a transient
	// load spike on a shared machine cannot print as a phantom regression:
	// the minimum over repeated passes estimates the kernel's unloaded cost,
	// which is the quantity the trajectory gate compares.
	Best int
	// Progress, when non-nil, receives one line per finished benchmark.
	Progress func(string)
}

func (cfg *LiveConfig) progress(format string, args ...interface{}) {
	if cfg.Progress != nil {
		cfg.Progress(fmt.Sprintf(format, args...))
	}
}

// liveCKKSParams returns the CKKS parameter set the suite measures the ring
// kernels at: the paper's evaluation shape, or the functional-test shape
// with -quick.
func liveCKKSParams(quick bool) (ckks.Parameters, string, error) {
	if quick {
		return ckks.TestParams(), "N=2^11 L=5", nil
	}
	// The paper's Table 7 shape (SHARP-style): N = 2^16, L = 44 scale
	// primes of 36 bits, dnum = 4, K = 12 special moduli.
	p, err := ckks.GenParams(16, 44, 4, 12, 49, 36, 49)
	if err != nil {
		return ckks.Parameters{}, "", err
	}
	return p, "N=2^16 L=44", nil
}

// RunLive measures the live kernel suite and returns the capture.
func RunLive(cfg LiveConfig) (*LiveSuite, error) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	suite := &LiveSuite{
		Schema:     "alchemist-bench/v1",
		Label:      cfg.Label,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workers,
		Quick:      cfg.Quick,
	}
	passes := cfg.Best
	if passes < 1 {
		passes = 1
	}
	add := func(name, params string, f func(b *testing.B)) {
		var res LiveResult
		for p := 0; p < passes; p++ {
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				f(b)
			})
			cand := LiveResult{
				Name:        name,
				Params:      params,
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				BytesPerOp:  r.AllocedBytesPerOp(),
				AllocsPerOp: r.AllocsPerOp(),
				Iters:       r.N,
			}
			if p == 0 || cand.NsPerOp < res.NsPerOp {
				res = cand
			}
		}
		suite.Results = append(suite.Results, res)
		cfg.progress("%-28s %14.0f ns/op %12d B/op %8d allocs/op", name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
	}

	// Each suite's contexts (rings, keys, twiddle tables — hundreds of MB at
	// the paper shape) die when it returns; collect them before the next
	// suite starts so one suite's retained heap cannot skew another's
	// numbers through GC pacing or cache pressure.
	suites := []func() error{
		func() error { return liveRing(cfg, workers, add) },
		func() error { return liveCKKSKeyed(cfg, workers, add) },
		func() error { return liveCKKSKeySwitch(cfg, workers, add) },
		func() error { return liveTFHE(cfg, add) },
		func() error { return liveBGV(cfg, add) },
		func() error { liveEngine(cfg, add); return nil },
	}
	for _, run := range suites {
		if err := run(); err != nil {
			return nil, err
		}
		runtime.GC()
	}
	return suite, nil
}

// liveRing measures the RNS ring kernels (NTT, INTT, ModUp, automorphism)
// and the key-free CKKS rescale at the paper shape.
func liveRing(cfg LiveConfig, workers int, add func(string, string, func(*testing.B))) error {
	params, shape, err := liveCKKSParams(cfg.Quick)
	if err != nil {
		return err
	}
	ctx, err := ckks.NewContext(params)
	if err != nil {
		return err
	}
	rq, rp := ctx.RQ, ctx.RP
	rq.SetWorkers(workers)
	rp.SetWorkers(workers)
	level := rq.MaxLevel()
	s := ring.NewSampler(rq, 1)

	p := rq.NewPoly(level)
	s.Uniform(level, p)
	add("ring/ntt", shape, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rq.NTT(level, p)
		}
	})
	add("ring/intt", shape, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rq.INTT(level, p)
		}
	})

	// ntt-par pins the worker pool to the host's full width so the
	// trajectory tracks the SIMD×parallel composition, not just the
	// single-thread kernel. On one-core hosts it degenerates to ring/ntt.
	add("ring/ntt-par", shape, func(b *testing.B) {
		rq.SetWorkers(runtime.GOMAXPROCS(0))
		defer rq.SetWorkers(workers)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rq.NTT(level, p)
		}
	})

	a := rq.NewPoly(level)
	s.Uniform(level, a)
	outP := rp.NewPoly(rp.MaxLevel())
	add("ring/modup", shape, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ctx.Ext.ModUp(level, a, outP)
		}
	})

	perm := rq.NewPoly(level)
	k := rq.GaloisElementForRotation(1)
	add("ring/automorphism-ntt", shape, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rq.AutomorphismNTT(level, a, k, perm)
		}
	})

	// Rescale needs no keys: a uniform ciphertext-shaped pair exercises the
	// same arithmetic as a real one.
	ct := &ckks.Ciphertext{
		Ciphertext: rlwe.Ciphertext{B: rq.Clone(level, a), A: rq.Clone(level, p), Level: level},
		Scale:      params.Scale * params.Scale,
	}
	ev := ckks.NewEvaluator(ctx, nil)
	add("ckks/rescale", shape, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, err := ev.Rescale(ct)
			if err != nil {
				b.Fatal(err)
			}
			liveRecycle(ctx, out)
		}
	})
	return nil
}

// liveCKKSKeyed measures the keyed CKKS operators (relinearization and
// rotation) at the functional-test shape, where key generation stays cheap.
func liveCKKSKeyed(cfg LiveConfig, workers int, add func(string, string, func(*testing.B))) error {
	params := ckks.TestParams()
	shape := "N=2^11 L=5"
	ctx, err := ckks.NewContext(params)
	if err != nil {
		return err
	}
	ctx.RQ.SetWorkers(workers)
	ctx.RP.SetWorkers(workers)
	kg := ckks.NewKeyGenerator(ctx, 1)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	hoistSteps := []int{1, 2, 3, 4, 5, 6, 7, 8}
	eks := kg.GenEvaluationKeySet(sk, hoistSteps, false)
	enc := ckks.NewEncoder(ctx)
	et := ckks.NewEncryptor(ctx, pk, 2)
	z := make([]complex128, params.Slots())
	for i := range z {
		z[i] = complex(float64(i%7)/7, 0)
	}
	level := params.MaxLevel()
	pt, err := enc.Encode(z, level, params.Scale)
	if err != nil {
		return err
	}
	ct1 := et.Encrypt(pt, level, params.Scale)
	ct2 := et.Encrypt(pt, level, params.Scale)
	ev := ckks.NewEvaluator(ctx, eks)

	add("ckks/mulrelin", shape, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, err := ev.MulRelin(ct1, ct2)
			if err != nil {
				b.Fatal(err)
			}
			liveRecycle(ctx, out)
		}
	})
	add("ckks/rotate", shape, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, err := ev.Rotate(ct1, 1)
			if err != nil {
				b.Fatal(err)
			}
			liveRecycle(ctx, out)
		}
	})

	return nil
}

// liveCKKSKeySwitch measures the fused lazy keyswitch pipeline at a
// keyswitch-bound shape: a deep modulus chain with a high digit count
// (L = 16 primes, dnum = 8, alpha = 2, K = 2), where the decompose →
// multiply-accumulate → base-convert structure dominates and hoisting has
// eight digit groups to amortize. The PR4-tracked kernels above keep their
// original shapes.
func liveCKKSKeySwitch(cfg LiveConfig, workers int, add func(string, string, func(*testing.B))) error {
	params, err := ckks.GenParams(11, 15, 8, 2, 55, 40, 55)
	if err != nil {
		return err
	}
	shape := "N=2^11 L=15 dnum=8"
	ctx, err := ckks.NewContext(params)
	if err != nil {
		return err
	}
	ctx.RQ.SetWorkers(workers)
	ctx.RP.SetWorkers(workers)
	kg := ckks.NewKeyGenerator(ctx, 1)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	hoistSteps := []int{1, 2, 3, 4, 5, 6, 7, 8}
	eks := kg.GenEvaluationKeySet(sk, hoistSteps, false)
	enc := ckks.NewEncoder(ctx)
	et := ckks.NewEncryptor(ctx, pk, 2)
	z := make([]complex128, params.Slots())
	for i := range z {
		z[i] = complex(float64(i%7)/7, 0)
	}
	level := params.MaxLevel()
	pt, err := enc.Encode(z, level, params.Scale)
	if err != nil {
		return err
	}
	ct := et.Encrypt(pt, level, params.Scale)
	ev := ckks.NewEvaluator(ctx, eks)

	// The fused lazy keyswitch (digit-batched dual conversion, 128-bit
	// accumulation, one deferred reduction). The eager per-group reference
	// it replaced is a test oracle now, so ckks/keyswitch-eager is retired.
	add("ckks/keyswitch-fused", shape, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ksB, ksA := ev.KeySwitchFused(level, ct.A, eks.Rlk)
			ctx.RQ.Release(ksB)
			ctx.RQ.Release(ksA)
		}
	})

	// 8-way rotation: one keyswitch per step (rotate8) against one shared
	// digit decomposition plus 8 permuted accumulations (rotate-hoisted8).
	var outs [8]*ckks.Ciphertext
	add("ckks/rotate8", shape, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, step := range hoistSteps {
				out, err := ev.Rotate(ct, step)
				if err != nil {
					b.Fatal(err)
				}
				liveRecycle(ctx, out)
			}
		}
	})
	add("ckks/rotate-hoisted8", shape, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := ev.RotateHoistedInto(ct, hoistSteps, outs[:]); err != nil {
				b.Fatal(err)
			}
			for _, out := range outs {
				liveRecycle(ctx, out)
			}
		}
	})
	return nil
}

// liveTFHE measures the TFHE bootstrapping kernels.
func liveTFHE(cfg LiveConfig, add func(string, string, func(*testing.B))) error {
	params := tfhe.DefaultParams()
	if cfg.Quick {
		params = tfhe.FastTestParams()
	}
	s, err := tfhe.NewScheme(params, 7)
	if err != nil {
		return err
	}
	ct := s.EncryptBool(true)
	tv := s.GateTestVector(1 << 29)

	// One bootstrapper serves every shape: single-op latency through the
	// trimmed FFT engine, and aggregate throughput with the stage pipeline
	// saturated by a full micro-batch of in-flight jobs.
	boot, err := s.Bootstrapper(tfhe.WithTestVector(tv))
	if err != nil {
		return err
	}
	add("tfhe/bootstrap", params.Name, func(b *testing.B) {
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			out, err := boot.Run(ctx, ct)
			if err != nil {
				b.Fatal(err)
			}
			boot.Recycle(out)
		}
	})
	const streamBatch = 8
	cts := make([]*tfhe.LweSample, streamBatch)
	for i := range cts {
		cts[i] = s.EncryptBool(i%2 == 0)
	}
	add("tfhe/bootstrap-stream-batch", params.Name, func(b *testing.B) {
		// Reported per job: issue b.N jobs through the pipeline in
		// micro-batch-sized bursts so blind-rotate and key-switch stages
		// always drain full batches.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		jobs, results := boot.Stream(ctx)
		done := make(chan error, 1)
		go func() {
			defer close(done)
			n := 0
			for res := range results {
				if res.Err != nil {
					done <- res.Err
					return
				}
				boot.Recycle(res.Out)
				if n++; n == b.N {
					return
				}
			}
		}()
		for i := 0; i < b.N; i++ {
			jobs <- tfhe.Job{Tag: i, Ct: cts[i%streamBatch]}
		}
		close(jobs)
		if err := <-done; err != nil {
			b.Fatal(err)
		}
	})
	return nil
}

// liveBGV measures the BGV multiply-relinearize at the functional shape.
func liveBGV(cfg LiveConfig, add func(string, string, func(*testing.B))) error {
	params := bgv.TestParams()
	ctx, err := bgv.NewContext(params)
	if err != nil {
		return err
	}
	kg := bgv.NewKeyGenerator(ctx, 1)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinKey(sk)
	enc := bgv.NewEncoder(ctx)
	et := bgv.NewEncryptor(ctx, pk, 2)
	slots := make([]uint64, params.N())
	for i := range slots {
		slots[i] = uint64(i) % params.T
	}
	level := ctx.RQ.MaxLevel()
	pt, err := enc.Encode(slots, level)
	if err != nil {
		return err
	}
	ct1 := et.Encrypt(pt, level)
	ct2 := et.Encrypt(pt, level)
	ev := bgv.NewEvaluator(ctx, rlk)
	add("bgv/mulrelin", "N=2^7 L=5", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ev.MulRelin(ct1, ct2); err != nil {
				b.Fatal(err)
			}
		}
	})
	return nil
}

// liveEngine measures full report regeneration on cold and warm engine
// caches (the PR 2 acceptance surface).
func newLiveCtx() *Ctx { return NewCtx(context.Background(), nil) }

func liveEngine(cfg LiveConfig, add func(string, string, func(*testing.B))) {
	add("engine/reports-cold", "default arch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := newLiveCtx()
			if len(c.All()) == 0 {
				b.Fatal("no reports")
			}
			c.Close()
		}
	})
	warm := newLiveCtx()
	defer warm.Close()
	warm.All()
	add("engine/reports-warm", "default arch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if len(warm.All()) == 0 {
				b.Fatal("no reports")
			}
		}
	})
}

// WriteJSON writes the capture to path ("-" for stdout).
func (s *LiveSuite) WriteJSON(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ReadLiveSuite loads a previously written capture.
func ReadLiveSuite(path string) (*LiveSuite, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s LiveSuite
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	return &s, nil
}

// Compare renders a speedup table of s (new) against base (old), matched by
// benchmark name. Names present on only one side are listed separately.
func (s *LiveSuite) Compare(base *LiveSuite) *Report {
	r := &Report{
		ID:      "bench-compare",
		Title:   fmt.Sprintf("live kernels: %s vs %s", s.Label, base.Label),
		Headers: []string{"kernel", "old ns/op", "new ns/op", "speedup", "old allocs", "new allocs"},
	}
	old := map[string]LiveResult{}
	for _, e := range base.Results {
		old[e.Name] = e
	}
	matched := map[string]bool{}
	var onlyNew, onlyOld []string
	for _, e := range s.Results {
		o, ok := old[e.Name]
		if !ok {
			onlyNew = append(onlyNew, e.Name)
			continue
		}
		matched[e.Name] = true
		r.AddRow(e.Name, f("%.0f", o.NsPerOp), f("%.0f", e.NsPerOp),
			ratio(o.NsPerOp, e.NsPerOp), f("%d", o.AllocsPerOp), f("%d", e.AllocsPerOp))
	}
	for _, e := range base.Results {
		if !matched[e.Name] {
			onlyOld = append(onlyOld, e.Name)
		}
	}
	sort.Strings(onlyNew)
	sort.Strings(onlyOld)
	if len(onlyNew) > 0 {
		r.Notes = append(r.Notes, "only in new capture: "+join(onlyNew))
	}
	if len(onlyOld) > 0 {
		r.Notes = append(r.Notes, "only in old capture: "+join(onlyOld))
	}
	return r
}

func join(names []string) string {
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out
}

// liveRecycle returns a ciphertext's buffers to the ring arena, so the
// measured loop reflects the steady-state of a long evaluation (borrow →
// compute → recycle) rather than per-op allocation. BENCH_BASELINE.json was
// captured when this was a no-op on the pre-pool substrate; the allocs/op
// delta between the two captures is the pooling win.
func liveRecycle(ctx *ckks.Context, ct *ckks.Ciphertext) {
	ctx.Recycle(ct)
}
