// Package sched compiles workload graphs into Meta-OP programs under the
// paper's data management (§5.3): every polynomial is distributed across
// computing units by slot (Fig. 5b), each unit touches only its private
// scratchpad, and the only inter-unit traffic is the transpose phase of the
// 4-step NTT.
//
// A compiled Phase holds its Meta-OP runs once, counted over the whole
// phase. Slot partitioning makes each unit's share a rule, not data:
// UnitCount derives it, and Execute, PhaseCycles and the stream verifier
// all read per-unit counts through it. Execute models each unit's 16 cores
// independently and is cross-checked against the aggregate model in
// internal/sim.
package sched

import (
	"fmt"
	"math"

	"alchemist/internal/arch"
	"alchemist/internal/errs"
	"alchemist/internal/metaop"
	"alchemist/internal/trace"
)

// Instr is a run of identical Meta-OPs, counted over all units of a phase.
type Instr struct {
	Pattern metaop.AccessPattern
	NAccum  int   // the Meta-OP's n
	Cycles  int   // per Meta-OP
	Count   int64 // identical Meta-OPs in this run, across all units
	Label   string
}

// Phase is the compiled form of one graph op: its Meta-OP runs plus the
// non-compute effects (transpose crossing, HBM stream).
type Phase struct {
	OpID  int
	Kind  trace.Kind
	Label string

	Instrs []Instr

	// TransposeElems counts elements crossing the transpose register file
	// after this phase's compute (non-local NTT passes only).
	TransposeElems int64

	// StreamBytes must arrive from HBM before the phase starts.
	StreamBytes int64

	Deps []int
}

// LocalOnly reports whether the phase touches only private scratchpads.
func (p Phase) LocalOnly() bool { return p.TransposeElems == 0 }

// Program is a compiled workload.
type Program struct {
	Cfg    arch.Config
	Name   string
	Phases []Phase
}

// UnitCount returns unit u's share of a run of count Meta-OPs. Every unit
// owns N/units slots of every channel of every dnum group (Fig. 5b), so
// the run splits evenly and the remainder goes to the low-numbered units.
func UnitCount(count int64, u, units int) int64 {
	c := count / int64(units)
	if int64(u) < count%int64(units) {
		c++
	}
	return c
}

// Compile lowers every op of the graph into a phase of Meta-OP runs under
// the slot-based partitioning. Failures wrap errs.ErrBadConfig.
func Compile(cfg arch.Config, g *trace.Graph) (*Program, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("sched: %w: %w", errs.ErrBadConfig, err)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("sched: %w", err)
	}
	if cfg.Lanes != metaop.J {
		return nil, fmt.Errorf("sched: lane width %d unsupported (Meta-OP lowering is j=%d): %w",
			cfg.Lanes, metaop.J, errs.ErrBadConfig)
	}
	prog := &Program{Cfg: cfg, Name: g.Name, Phases: make([]Phase, 0, len(g.Ops))}
	for _, op := range g.Ops {
		ph := Phase{
			OpID:        op.ID,
			Kind:        op.Kind,
			Label:       op.Label,
			StreamBytes: op.StreamBytes,
			Deps:        append([]int(nil), op.Deps...),
		}
		for _, b := range metaop.Lower(op) {
			if b.Count == 0 {
				continue
			}
			ph.Instrs = append(ph.Instrs, Instr{
				Pattern: b.Pattern,
				NAccum:  b.NAccum,
				Cycles:  b.Cycles,
				Count:   b.Count,
				Label:   b.Label,
			})
		}
		if (op.Kind == trace.KindNTT || op.Kind == trace.KindINTT) &&
			!op.Local && op.N > cfg.Units {
			ph.TransposeElems = int64(op.N) * int64(op.Channels) * int64(op.Polys)
		}
		prog.Phases = append(prog.Phases, ph)
	}
	return prog, nil
}

// Clone returns a deep copy of the program. The stream verifier's mutation
// harness clones before mutating so the original stays intact.
func (p *Program) Clone() *Program {
	q := &Program{Cfg: p.Cfg, Name: p.Name, Phases: make([]Phase, len(p.Phases))}
	for i, ph := range p.Phases {
		np := ph
		np.Deps = append([]int(nil), ph.Deps...)
		np.Instrs = append([]Instr(nil), ph.Instrs...)
		q.Phases[i] = np
	}
	return q
}

// unitCycles returns the compute cycles unit u spends on the phase: the
// unit's cores drain each of its runs in parallel rounds, slowed by the
// run's scratchpad access-pattern efficiency. Runs with no Meta-OPs on the
// unit cost nothing.
func unitCycles(cfg arch.Config, ph *Phase, u int) int64 {
	cores := int64(cfg.CoresPerUnit)
	var t int64
	for _, in := range ph.Instrs {
		c := UnitCount(in.Count, u, cfg.Units)
		if c < 1 {
			continue
		}
		rounds := (c + cores - 1) / cores
		eff := metaop.PatternEfficiency[in.Pattern]
		if eff <= 0 || eff > 1 {
			eff = 1
		}
		t += int64(math.Ceil(float64(rounds*int64(in.Cycles)) / eff))
	}
	return t
}

// PhaseCycles returns how long the phase holds the core array: the compute
// of its longest unit, then the transpose crossing. Unit 0 takes the
// remainder of every run, so no unit outlasts it.
func PhaseCycles(cfg arch.Config, ph *Phase) (compute, transpose int64) {
	compute = unitCycles(cfg, ph, 0)
	if ph.TransposeElems > 0 {
		lanes := int64(cfg.TransposeLanesPerCycle)
		transpose = (ph.TransposeElems + lanes - 1) / lanes
	}
	return compute, transpose
}

// ExecResult is the outcome of per-unit execution.
type ExecResult struct {
	Cycles         int64
	BusyLaneCycles int64
	// Imbalance is the max/mean ratio of per-unit busy cycles (1.0 = ideal).
	Imbalance float64
	// PerUnitBusy is each unit's total occupied cycles.
	PerUnitBusy []int64
	// TransposeCycles is the total time spent in transpose phases.
	TransposeCycles int64
	// MemCycles is the total HBM streaming time.
	MemCycles int64
}

// Execute interprets the program: each phase runs its units in parallel
// (a unit's cores consume its Meta-OPs 16 at a time), the phase ends when
// the slowest unit and the transpose crossing finish (PhaseCycles), and HBM
// streams gate phase starts exactly as in internal/sim.
func Execute(p *Program) ExecResult {
	cfg := p.Cfg
	res := ExecResult{PerUnitBusy: make([]int64, cfg.Units)}
	finish := make([]int64, len(p.Phases))
	var computeFree, memFree int64

	for i := range p.Phases {
		ph := &p.Phases[i]
		for u := range res.PerUnitBusy {
			res.PerUnitBusy[u] += unitCycles(cfg, ph, u)
		}
		longest, transpose := PhaseCycles(cfg, ph)
		res.TransposeCycles += transpose
		// Busy lane-cycles: every Meta-OP keeps its unit's lanes multiplying.
		for _, in := range ph.Instrs {
			res.BusyLaneCycles += in.Count * int64(in.Cycles) * int64(cfg.Lanes)
		}
		var streamDone int64
		if ph.StreamBytes > 0 {
			memFree += int64(math.Ceil(float64(ph.StreamBytes) / cfg.HBMBytesPerCycle()))
			streamDone = memFree
			res.MemCycles = memFree
		}
		ready := int64(0)
		for _, d := range ph.Deps {
			if finish[d] > ready {
				ready = finish[d]
			}
		}
		start := ready
		if computeFree > start {
			start = computeFree
		}
		if streamDone > start {
			start = streamDone
		}
		end := start + longest + transpose
		computeFree = end
		finish[i] = end
		if end > res.Cycles {
			res.Cycles = end
		}
	}
	var sum, max int64
	for _, b := range res.PerUnitBusy {
		sum += b
		if b > max {
			max = b
		}
	}
	if sum > 0 {
		mean := float64(sum) / float64(len(res.PerUnitBusy))
		res.Imbalance = float64(max) / mean
	}
	return res
}

// AccessSummary describes the scratchpad behaviour of a compiled program —
// the §5.3 claim made checkable: how many phases are unit-local and how much
// data crosses the transpose register file.
type AccessSummary struct {
	Phases         int
	LocalPhases    int
	TransposeElems int64
}

// Summarize reports the locality statistics of a program.
func Summarize(p *Program) AccessSummary {
	s := AccessSummary{Phases: len(p.Phases)}
	for _, ph := range p.Phases {
		if ph.LocalOnly() {
			s.LocalPhases++
		}
		s.TransposeElems += ph.TransposeElems
	}
	return s
}
