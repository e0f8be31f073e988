// Package sim is the cycle-level performance model of the Alchemist
// accelerator. It executes a trace.Graph on an arch.Config by lowering every
// operator to Meta-OP batches (internal/metaop), scheduling them on the
// unified core array, and modelling the three off-compute effects that set
// real runtimes: HBM streaming of evaluation keys (double-buffered, in
// program order), transpose-register-file phases of the 4-step NTT, and
// scratchpad access-pattern efficiency.
//
// The timing contract is validated against the paper's Table 7: Pmult at
// N=2^16, 44 channels runs in exactly 1056 cycles (946,970 ops/s) and Hadd
// in 1408 (710,227 ops/s); Keyswitch-class ops become evk-bandwidth-bound
// near the published 138k cycles.
package sim

import (
	"fmt"
	"math"

	"alchemist/internal/arch"
	"alchemist/internal/errs"
	"alchemist/internal/metaop"
	"alchemist/internal/trace"
)

// ClassStats aggregates activity per Figure 1 operator class.
type ClassStats struct {
	OccupancyCycles int64 // cycles the core array spent on this class
	BusyLaneCycles  int64 // multiplier-lane activations
	MultsLazy       int64 // raw mults, Meta-OP (lazy reduction) form
	MultsEager      int64 // raw mults, eager per-term reduction form
}

// OpTiming records the schedule of one op.
type OpTiming struct {
	ID              int
	Kind            trace.Kind
	Label           string
	Start, End      int64
	StreamDone      int64
	OccupancyCycles int64
	TransposeCycles int64
}

// Result is the outcome of a simulation.
type Result struct {
	Name   string
	Config arch.Config

	Cycles  int64   // makespan
	Seconds float64 // makespan at the configured frequency

	BusyLaneCycles int64
	Utilization    float64 // mult-lane busy fraction over the makespan
	// ComputeUtilization is the mult-lane busy fraction over the cycles the
	// core array was occupied (excluding memory stalls) — the FU-busy
	// metric Fig. 7(b) reports for Alchemist and the baselines.
	ComputeUtilization float64

	ComputeCycles int64 // Σ core-array occupancy
	MemCycles     int64 // Σ HBM streaming cycles
	MemBound      bool  // streaming exceeded compute on the critical path

	StreamBytes int64

	PerClass map[trace.Class]*ClassStats
	Timings  []OpTiming
}

// String summarizes the result.
func (r Result) String() string {
	return fmt.Sprintf("%s: %d cycles (%.3g s), util %.2f, compute %d, mem %d",
		r.Name, r.Cycles, r.Seconds, r.Utilization, r.ComputeCycles, r.MemCycles)
}

// EagerMults returns the op's raw multiplication count under eager per-term
// reduction (the "origin" columns of Tables 2 and 3), for Fig. 7(a).
func EagerMults(op *trace.Op) int64 {
	ch := int64(op.Channels) * int64(op.Polys)
	switch op.Kind {
	case trace.KindNTT, trace.KindINTT:
		return metaop.NTTMults(op.N, false) * ch
	case trace.KindBconv:
		return metaop.ModupMults(op.SrcChannels, op.Channels, op.N, false) * int64(op.Polys)
	case trace.KindDecompPolyMult:
		return metaop.DecompPolyMultMults(op.Dnum, op.N, false) * ch
	case trace.KindEWMult, trace.KindEWMulSub:
		return metaop.EWMultMults(op.N) * ch
	default:
		return 0
	}
}

// Simulate executes the graph on the configuration. Configuration failures
// wrap errs.ErrBadConfig; graph failures carry the trace package's
// classification (errs.ErrGraphCycle or errs.ErrBadConfig).
func Simulate(cfg arch.Config, g *trace.Graph) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, fmt.Errorf("sim: %w: %w", errs.ErrBadConfig, err)
	}
	if err := g.Validate(); err != nil {
		return Result{}, fmt.Errorf("sim: %w", err)
	}
	cores := int64(cfg.Cores())
	res := Result{
		Name:     g.Name,
		Config:   cfg,
		PerClass: map[trace.Class]*ClassStats{},
	}
	for _, c := range []trace.Class{trace.ClassNTT, trace.ClassBconv, trace.ClassDecompPolyMult, trace.ClassOther} {
		res.PerClass[c] = &ClassStats{}
	}

	finish := make([]int64, len(g.Ops))
	var computeFree, memFree int64
	bytesPerCycle := cfg.HBMBytesPerCycle()

	for _, op := range g.Ops {
		var occupancy, busy, lazy int64
		for _, b := range metaop.Lower(op) {
			perCore := (b.Count + cores - 1) / cores
			t := perCore * int64(b.Cycles)
			eff := metaop.PatternEfficiency[b.Pattern]
			occupancy += int64(math.Ceil(float64(t) / eff))
			busy += b.TotalMults()
			lazy += b.TotalMults()
		}
		// Transpose phases: a non-local (I)NTT tiles as a 4-step transform
		// with one full transpose through the register file per pass pair.
		var transpose int64
		if (op.Kind == trace.KindNTT || op.Kind == trace.KindINTT) && !op.Local && op.N > cfg.Units {
			elems := int64(op.N) * int64(op.Channels) * int64(op.Polys)
			transpose = (elems + int64(cfg.TransposeLanesPerCycle) - 1) / int64(cfg.TransposeLanesPerCycle)
		}

		// HBM streaming: issued in program order, overlapped with compute
		// (double buffering), but the op cannot start before its stream
		// lands.
		var streamCycles, streamDone int64
		if op.StreamBytes > 0 {
			streamCycles = int64(math.Ceil(float64(op.StreamBytes) / bytesPerCycle))
			memFree += streamCycles
			streamDone = memFree
		}

		ready := int64(0)
		for _, d := range op.Deps {
			if finish[d] > ready {
				ready = finish[d]
			}
		}
		start := max64(ready, computeFree, streamDone)
		end := start + occupancy + transpose
		computeFree = end
		finish[op.ID] = end

		cls := res.PerClass[trace.ClassOf(op.Kind)]
		cls.OccupancyCycles += occupancy + transpose
		cls.BusyLaneCycles += busy
		cls.MultsLazy += lazy
		cls.MultsEager += EagerMults(op)

		res.BusyLaneCycles += busy
		res.ComputeCycles += occupancy + transpose
		res.MemCycles += streamCycles
		res.StreamBytes += op.StreamBytes
		res.Timings = append(res.Timings, OpTiming{
			ID: op.ID, Kind: op.Kind, Label: op.Label,
			Start: start, End: end, StreamDone: streamDone,
			OccupancyCycles: occupancy, TransposeCycles: transpose,
		})
		if end > res.Cycles {
			res.Cycles = end
		}
	}
	res.Seconds = float64(res.Cycles) / (cfg.FreqGHz * 1e9)
	res.MemBound = res.MemCycles > res.ComputeCycles
	totalLanes := float64(cfg.TotalLanes()) * float64(res.Cycles)
	if totalLanes > 0 {
		res.Utilization = float64(res.BusyLaneCycles) / totalLanes
	}
	if res.ComputeCycles > 0 {
		res.ComputeUtilization = float64(res.BusyLaneCycles) /
			(float64(cfg.TotalLanes()) * float64(res.ComputeCycles))
	}
	return res, nil
}

// ClassUtilization returns the mult-lane utilization while the given class
// was occupying the array (the per-task utilizations of Fig. 7b).
func (r Result) ClassUtilization(c trace.Class) float64 {
	s := r.PerClass[c]
	if s == nil || s.OccupancyCycles == 0 {
		return 0
	}
	return float64(s.BusyLaneCycles) / (float64(s.OccupancyCycles) * float64(r.Config.TotalLanes()))
}

// MultsTotal returns total raw multiplications in lazy and eager forms
// (Fig. 7a).
func (r Result) MultsTotal() (lazy, eager int64) {
	for _, s := range r.PerClass {
		lazy += s.MultsLazy
		eager += s.MultsEager
	}
	return
}

// ClassShares returns each class's share of eager multiplications — the
// paper's Figure 1 "operator ratio in the algorithm".
func ClassShares(g *trace.Graph) map[trace.Class]float64 {
	totals := map[trace.Class]int64{}
	var sum int64
	for _, op := range g.Ops {
		m := EagerMults(op)
		totals[trace.ClassOf(op.Kind)] += m
		sum += m
	}
	out := map[trace.Class]float64{}
	if sum == 0 {
		return out
	}
	for c, v := range totals {
		out[c] = float64(v) / float64(sum)
	}
	return out
}

func max64(xs ...int64) int64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
