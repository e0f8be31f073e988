// Command benchmark measures the live FHE stack (ckks, bgv, tfhe, bridge) and
// the accelerator model (bench, engine) on six application-shaped
// workloads. Each run prints its metrics one per line and, as its last
// line, one JSON object with the correctness verdict and the metrics.
//
// Usage, from this directory:
//
//	go run . -workload lola-mnist -seed 1 -seconds 5 -trace 0
//	go run . -seed 1            # every workload, each in its own process
//	go run . -seed 1 -trace 1   # per-layer metrics; spans go to .bench_build/spans
//
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"

	"alchemist/internal/engine"
)

const (
	warmups = 2 // untimed requests after each set-up
	setups  = 3 // set-ups per run; setup_s is their median
	// The measured phase runs until p90 has tailBeyond samples above it.
	tailPct, tailBeyond = 90, 10
	// A traced run alternates untraced and traced requests, at least
	// traceRequests of each; it reports means, not tail percentiles.
	traceRequests = 10
	// maxMeasure bounds a phase, so a run ends well inside three minutes.
	maxMeasure = 120 * time.Second
	// spansDir is where a traced run writes <workload>.json, relative to
	// the directory the benchmark runs in; .bench_build is never committed.
	spansDir = ".bench_build/spans"
)

type metric struct{ name, unit, better string }

// endToEnd are the metrics a user of the system sees, reported by an
// untraced run.
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
	{"throughput_rps", "1/s", "higher"},
	{"rss_mb", "MB", "lower"},
}

// spanNames are the public calls the workloads trace, as <module>.<call>.
var spanNames = []string{
	"ckks.encode", "ckks.encrypt", "ckks.linear_transform", "ckks.mulrelin", "ckks.rescale",
	"ckks.rotate", "ckks.add", "ckks.add_plain", "ckks.decrypt", "ckks.decode",
	"bgv.encode", "bgv.encrypt", "bgv.add", "bgv.mul_plain", "bgv.mulrelin", "bgv.decrypt", "bgv.decode",
	"tfhe.encrypt", "tfhe.circuit", "tfhe.decrypt",
	"bridge.to_lwe", "bridge.sign",
	"bench.all",
}

// counters are the per-layer metrics that are not span times.
var counters = []metric{
	{"ckks.precision_bits", "bits", "higher"},
	{"tfhe.gates_per_s", "1/s", "higher"},
	{"engine.jobs", "count", "lower"},
	{"engine.hit_rate", "frac", "higher"},
	{"engine.failed", "count", "lower"},
	{"engine.job_wall_ms", "ms", "lower"},
	{"runtime.alloc_mb", "MB", "lower"},
	{"runtime.allocs", "count", "lower"},
	{"runtime.gc_cpu_frac", "frac", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
}

// perLayer are the metrics a traced run reports: each span's mean self time
// per request and its share of request wall time, then the counters.
func perLayer() []metric {
	var out []metric
	for _, s := range spanNames {
		out = append(out, metric{s + ".ms", "ms", "lower"}, metric{s + ".share", "frac", "lower"})
	}
	return append(out, counters...)
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // samples behind the value
}

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// units maps every declared metric to its unit.
var units = func() map[string]string {
	u := map[string]string{}
	for _, m := range slices.Concat(endToEnd, perLayer()) {
		u[m.name] = m.unit
	}
	return u
}()

// put records the declared metric name, measured from n samples.
func (r *result) put(name string, v float64, n int) {
	u, ok := units[name]
	if !ok {
		panic("undeclared metric " + name)
	}
	r.Metrics[name] = value{Value: v, Unit: u, n: n}
}

type config struct {
	seed        int64
	seconds     float64 // least duration of the measured phase
	minRequests int     // least requests in the measured phase
	trace       bool
}

func main() {
	name := flag.String("workload", "", "workload to run; empty runs every workload, each in its own process")
	seed := flag.Int64("seed", 1, "seed the inputs and keys are drawn from")
	seconds := flag.Float64("seconds", 5, "least duration of the measured phase")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end metrics, and writes its spans")
	flag.Parse()
	if (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *name == "" {
		os.Exit(runAll())
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	cfg := config{
		seed:        *seed,
		seconds:     *seconds,
		minRequests: requestsFor(tailPct, tailBeyond),
		trace:       *trace == 1,
	}
	if cfg.trace {
		cfg.minRequests = 2 * traceRequests
	}
	if err := run(w, cfg, spansDir); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		os.Exit(1)
	}
}

// run measures w and prints its metrics.
func run(w workload, cfg config, dir string) error {
	res, err := runWorkload(w, cfg, dir)
	if err != nil {
		return err
	}
	declared := endToEnd
	if cfg.trace {
		declared = perLayer()
	}
	for _, m := range declared {
		v := res.Metrics[m.name]
		fmt.Printf("%s %s %v %s n=%d\n", w.name, m.name, v.Value, v.Unit, v.n)
	}
	fmt.Printf("%s attempted=%d failed=%d fail_frac=%v\n", w.name, res.Attempted, res.Failed,
		float64(res.Failed)/float64(res.Attempted))
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runAll re-executes this program once per workload, so set-up time and
// memory belong to one workload, and returns the exit code.
func runAll() int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, slices.Concat(os.Args[1:], []string{"-workload", w.name})...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// runWorkload sets w up, measures it and returns its metrics. A traced run
// also writes its spans to dir/<workload>.json.
func runWorkload(w workload, cfg config, dir string) (result, error) {
	tr := newTracer()
	inst, setupS, err := setUp(w, cfg, tr)
	if err != nil {
		return result{}, err
	}
	defer inst.close()
	// Hand the discarded set-ups' memory back, so rss_mb is what serving
	// requests keeps resident.
	debug.FreeOSMemory()
	res := result{Metrics: map[string]value{}}
	if !cfg.trace {
		t, _, err := measure(inst, tr, cfg.seconds, cfg.minRequests, false)
		if err != nil {
			return result{}, err
		}
		n := len(t.lat)
		res.Attempted, res.Failed, res.Correct = n, t.failed, t.failed == 0
		res.put("setup_s", nearestRank(setupS, 50), len(setupS))
		res.put("latency_p50_ms", t.p50(), n)
		res.put("latency_p90_ms", t.p90(), n)
		res.put("throughput_rps", t.throughput(), n)
		res.put("rss_mb", nearestRank(t.rss, 50), n)
		return res, nil
	}

	// Traced and untraced requests alternate, so both see the same machine
	// and their p50s give the tracing overhead. The counters span both;
	// spans are appended to a growing slice, which adds few allocations.
	before := takeSnapshot(inst)
	plain, traced, err := measure(inst, tr, cfg.seconds, cfg.minRequests, true)
	if err != nil {
		return result{}, err
	}
	after := takeSnapshot(inst)
	res.Attempted = len(plain.lat) + len(traced.lat)
	res.Failed = plain.failed + traced.failed
	res.Correct = res.Failed == 0

	n, nt := res.Attempted, len(traced.lat)
	self := selfNanos(tr.spans)
	var wall int64
	for _, s := range tr.spans {
		if s.Parent < 0 {
			wall += s.End - s.Start
		}
	}
	for _, s := range spanNames {
		res.put(s+".ms", float64(self[s])/float64(nt)/1e6, nt)
		res.put(s+".share", float64(self[s])/float64(wall), nt)
	}
	precision := 0.0
	if e := max(plain.maxErr, traced.maxErr); e > 0 {
		precision = -math.Log2(e)
	}
	res.put("ckks.precision_bits", precision, n)
	gatesPerS := 0.0
	if pbs := self["tfhe.circuit"] + self["bridge.sign"]; pbs > 0 {
		gatesPerS = float64(inst.gates*nt) / (float64(pbs) / 1e9)
	}
	res.put("tfhe.gates_per_s", gatesPerS, nt)

	eng := engine.Stats{
		Submitted:   after.eng.Submitted - before.eng.Submitted,
		Completed:   after.eng.Completed - before.eng.Completed,
		Failed:      after.eng.Failed - before.eng.Failed,
		CacheHits:   after.eng.CacheHits - before.eng.CacheHits,
		CacheMisses: after.eng.CacheMisses - before.eng.CacheMisses,
		TotalWall:   after.eng.TotalWall - before.eng.TotalWall,
	}
	jobWall := 0.0
	if eng.Completed > 0 {
		jobWall = float64(eng.TotalWall.Nanoseconds()) / float64(eng.Completed) / 1e6
	}
	res.put("engine.jobs", float64(eng.Submitted)/float64(n), n)
	res.put("engine.hit_rate", eng.HitRate(), n)
	res.put("engine.failed", float64(eng.Failed)/float64(n), n)
	res.put("engine.job_wall_ms", jobWall, n)

	res.put("runtime.alloc_mb", float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/float64(n)/(1<<20), n)
	res.put("runtime.allocs", float64(after.mem.Mallocs-before.mem.Mallocs)/float64(n), n)
	gcFrac := 0.0
	if cpu := after.cpu - before.cpu; cpu > 0 {
		gcFrac = (after.gc - before.gc) / cpu
	}
	res.put("runtime.gc_cpu_frac", gcFrac, n)
	res.put("trace.overhead_frac", traced.p50()/plain.p50()-1, n)
	return res, writeSpans(filepath.Join(dir, w.name+".json"), tr.spans)
}

// setUp builds setups instances of w in turn, each followed by the warm-up
// requests, and keeps the last. It returns each set-up's seconds.
func setUp(w workload, cfg config, tr *tracer) (*instance, []float64, error) {
	var inst *instance
	secs := make([]float64, setups)
	for i := range secs {
		if inst != nil {
			inst.close()
			runtime.GC()
		}
		start := time.Now()
		var err error
		if inst, err = w.setup(cfg.seed, tr); err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		for j := 0; j < warmups; j++ {
			o, err := inst.request()
			if _, ok := o.check(); err == nil && !ok {
				err = errors.New("wrong result")
			}
			if err != nil {
				inst.close()
				return nil, nil, fmt.Errorf("warm-up request: %w", err)
			}
		}
		secs[i] = time.Since(start).Seconds()
	}
	return inst, secs, nil
}

// measure runs a closed loop of one client: the next request starts when
// the previous one returns. It lasts at least seconds and minRequests
// requests, and fails if maxMeasure passes first. With traceOdd every
// second request is traced and tallied apart from the others.
func measure(inst *instance, tr *tracer, seconds float64, minRequests int, traceOdd bool) (plain, traced *tally, err error) {
	plain, traced = &tally{}, &tally{}
	least := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	for n := 0; n < minRequests || time.Since(start) < least; n++ {
		if time.Since(start) > maxMeasure {
			return nil, nil, fmt.Errorf("only %d requests in %v; the tail percentile needs %d", n, maxMeasure, minRequests)
		}
		t := plain
		if traceOdd && n%2 == 1 {
			t, tr.on = traced, true
		}
		root := tr.start("request")
		t0 := time.Now()
		o, err := inst.request()
		d := time.Since(t0)
		tr.stop(root)
		tr.on = false
		tr.req++
		t.add(d, o, err)
		if !traceOdd { // a traced run counts allocations; reading /proc allocates
			rss, err := residentMB()
			if err != nil {
				return nil, nil, err
			}
			t.rss = append(t.rss, rss)
		}
	}
	plain.wall = time.Since(start)
	return plain, traced, nil
}

type snapshot struct {
	mem     runtime.MemStats
	gc, cpu float64 // GC and total CPU seconds
	eng     engine.Stats
}

func takeSnapshot(inst *instance) snapshot {
	var s snapshot
	runtime.ReadMemStats(&s.mem)
	cpu := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(cpu)
	s.gc, s.cpu = cpu[0].Value.Float64(), cpu[1].Value.Float64()
	if inst.engine != nil {
		s.eng = *inst.engine
	}
	return s
}

// residentMB returns the process's resident set size in MiB.
func residentMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("short /proc/self/statm: %q", b)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20), err
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
