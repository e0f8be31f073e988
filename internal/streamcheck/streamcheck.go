// Package streamcheck statically verifies compiled Meta-OP programs
// against the architectural contract of §5.3, without executing them.
// Given the source trace.Graph, the arch.Config and the sched.Program
// compiled from them, Check proves four families of invariants and reports
// every violation as a Finding:
//
//   - instr: every Meta-OP run is a row of the Meta-OP legality table
//     (metaop.Specs) — known family, accumulation depth n ≥ 1 matching the
//     operator shape (radix stages pinned, Bconv accumulation = source
//     channels, DecompPolyMult = dnum), Cycles = n+2 for accumulating
//     patterns, the family's access pattern, positive count.
//   - scratchpad / stream / transpose: each phase's per-unit live set fits
//     the private scratchpad, HBM stream sizes are conserved from the graph
//     (phases whose stream exceeds the double-buffer window are reported as
//     StreamBound, informationally — keyswitch-class ops are legitimately
//     evk-bandwidth-bound), and transpose element counts match the 4-step
//     NTT shape exactly.
//   - conserve: per phase, the per-family Meta-OP totals equal the shared
//     lowering (metaop.Lower) exactly, and raw-mult totals equal the
//     analytical lazy formulas of Tables 2 and 3 (metaop.LazyMults).
//   - linkage / label / config: every phase resolves to its graph op in
//     order with matching kind, label and dependencies; labels are
//     non-empty and unique within a phase; the configuration has the
//     Meta-OP lane width.
//
// A phase stores each run once with its whole-phase count; each unit's
// share follows from sched.UnitCount, so the slot partitioning's balance
// holds by construction and is not checked here.
//
// Verify folds a non-clean report into an error wrapping
// errs.ErrIllegalStream. CompileAndVerify runs it after sched.Compile; the
// batch engine calls that per job under alchemist.WithVerifyStreams, and
// `alchemist check` prints the full report. The mutation harness in
// mutate.go turns the checker on itself: systematic single-defect
// mutations of real compiled programs must all be caught.
package streamcheck

import (
	"fmt"
	"math"
	"sort"

	"alchemist/internal/arch"
	"alchemist/internal/errs"
	"alchemist/internal/metaop"
	"alchemist/internal/sched"
	"alchemist/internal/trace"
)

// Check verifies the program against the graph it was compiled from and
// returns the full report. The error is non-nil only when the inputs are
// unusable (nil, invalid configuration or graph — wrapping
// errs.ErrBadConfig); contract violations in a well-formed program are
// Findings in the report, never errors.
func Check(g *trace.Graph, p *sched.Program) (*Report, error) {
	if g == nil || p == nil {
		return nil, fmt.Errorf("streamcheck: nil graph or program: %w", errs.ErrBadConfig)
	}
	cfg := p.Cfg
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("streamcheck: %w: %w", errs.ErrBadConfig, err)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("streamcheck: %w", err)
	}

	r := &Report{Name: p.Name, ScratchpadCapacity: cfg.LocalScratchpadBytes}
	if p.Name != g.Name {
		r.addf(-1, "linkage", "program name %q does not match graph name %q", p.Name, g.Name)
	}
	if cfg.Lanes != metaop.J {
		r.addf(-1, "config", "lane width %d is not the Meta-OP width j=%d", cfg.Lanes, metaop.J)
	}
	if len(p.Phases) != len(g.Ops) {
		r.addf(-1, "linkage", "%d phases compiled from %d graph ops", len(p.Phases), len(g.Ops))
	}

	seen := make([]bool, len(g.Ops))
	var noStallEnd, streamDone int64
	bytesPerCycle := cfg.HBMBytesPerCycle()

	for i := range p.Phases {
		ph := &p.Phases[i]
		pr := PhaseReport{
			Index: i, OpID: ph.OpID, Kind: ph.Kind, Label: ph.Label,
			TransposeElems: ph.TransposeElems, StreamBytes: ph.StreamBytes,
			Local: ph.LocalOnly(),
		}

		// Linkage: the phase must resolve to its op, in graph order.
		var op *trace.Op
		switch {
		case ph.OpID < 0 || ph.OpID >= len(g.Ops):
			r.addf(i, "linkage", "op id %d outside graph [0,%d)", ph.OpID, len(g.Ops))
		default:
			if seen[ph.OpID] {
				r.addf(i, "linkage", "op %d compiled more than once", ph.OpID)
			}
			seen[ph.OpID] = true
			if ph.OpID != i {
				r.addf(i, "linkage", "compiled from op %d; phases must follow graph order", ph.OpID)
			}
			op = g.Ops[ph.OpID]
		}
		if op != nil {
			if ph.Kind != op.Kind {
				r.addf(i, "linkage", "kind %v does not match op kind %v", ph.Kind, op.Kind)
			}
			if ph.Label != op.Label {
				r.addf(i, "label", "label %q does not match op label %q", ph.Label, op.Label)
			}
			if !equalInts(ph.Deps, op.Deps) {
				r.addf(i, "linkage", "deps %v do not match op deps %v", ph.Deps, op.Deps)
			}
		}
		if ph.Label == "" {
			r.addf(i, "label", "empty phase label")
		}

		// Instruction legality against the shared Meta-OP table, plus the
		// per-family census for the conservation checks below.
		perFamily := map[string]int64{}
		dup := map[string]bool{}
		for _, in := range ph.Instrs {
			if in.Label == "" {
				r.addf(i, "label", "unlabeled instruction")
			}
			if dup[in.Label] {
				r.addf(i, "label", "duplicate instruction label %q in phase", in.Label)
			}
			dup[in.Label] = true
			spec, ok := metaop.Specs[in.Label]
			if !ok {
				r.addf(i, "instr", "%q is not a Meta-OP family the core array executes", in.Label)
				continue
			}
			if in.Count < 1 {
				r.addf(i, "instr", "%q has non-positive count %d", in.Label, in.Count)
				continue
			}
			if in.NAccum < 1 {
				r.addf(i, "instr", "%q has accumulation depth %d < 1", in.Label, in.NAccum)
			}
			if in.Pattern != spec.Pattern {
				r.addf(i, "instr", "%q uses access pattern %v; the family requires %v",
					in.Label, in.Pattern, spec.Pattern)
			}
			if want := spec.CyclesFor(in.NAccum); in.Cycles != want {
				r.addf(i, "instr", "%q at n=%d claims %d cycles; (M8A8)_nR8 timing requires %d",
					in.Label, in.NAccum, in.Cycles, want)
			}
			if spec.Accumulating {
				if want, ok := shapeAccum(in.Label, spec, op); ok && in.NAccum != want {
					r.addf(i, "instr", "%q runs at depth n=%d; the operator shape requires n=%d",
						in.Label, in.NAccum, want)
				}
			} else if in.NAccum != 1 {
				r.addf(i, "instr", "non-accumulating %q at depth n=%d", in.Label, in.NAccum)
			}
			perFamily[in.Label] += in.Count
			pr.MetaOps += in.Count
			pr.Mults += in.Count * spec.MultsFor(in.NAccum)
		}

		if op != nil {
			checkConservation(r, i, op, perFamily, &pr)
			checkResources(r, i, cfg, op, ph, &pr)
		}
		if ph.StreamBytes < 0 {
			r.addf(i, "stream", "negative stream size %d bytes", ph.StreamBytes)
		}

		// Double-buffer window: streams are issued in program order and
		// overlap compute; a phase whose cumulative stream outruns the
		// no-stall compute frontier is memory-bound. That is legal (the
		// paper's keyswitch is evk-bandwidth-bound) but worth surfacing.
		compute, transpose := sched.PhaseCycles(cfg, ph)
		pr.Cycles = compute + transpose
		if ph.StreamBytes > 0 && bytesPerCycle > 0 {
			pr.StreamCycles = int64(math.Ceil(float64(ph.StreamBytes) / bytesPerCycle))
			streamDone += pr.StreamCycles
			if streamDone > noStallEnd {
				pr.StreamBound = true
				r.StreamBoundPhases++
			}
		}
		noStallEnd += pr.Cycles

		if pr.Local {
			r.LocalPhases++
		}
		if pr.ScratchpadBytes > r.MaxScratchpadBytes {
			r.MaxScratchpadBytes = pr.ScratchpadBytes
		}
		r.MetaOps += pr.MetaOps
		r.Mults += pr.Mults
		r.Phases = append(r.Phases, pr)
	}
	return r, nil
}

// checkConservation holds one phase to the shared lowering: per-family
// totals match metaop.Lower exactly, and the raw-mult total equals the
// analytical lazy form of Tables 2 and 3.
func checkConservation(r *Report, i int, op *trace.Op, perFamily map[string]int64, pr *PhaseReport) {
	want := map[string]int64{}
	for _, b := range metaop.Lower(op) {
		want[b.Label] += b.Count
	}
	for _, label := range sortedKeys(perFamily) {
		w, ok := want[label]
		switch {
		case !ok:
			r.addf(i, "conserve", "family %q does not belong to %v %q", label, op.Kind, op.Label)
		case perFamily[label] != w:
			r.addf(i, "conserve", "%q has %d Meta-OPs; lowering requires %d", label, perFamily[label], w)
		}
		delete(want, label)
	}
	for _, l := range sortedKeys(want) {
		if want[l] > 0 {
			r.addf(i, "conserve", "family %q missing entirely (%d Meta-OPs required)", l, want[l])
		}
	}
	if wantM := metaop.LazyMults(op); pr.Mults != wantM {
		r.addf(i, "conserve", "%d raw mults; the Tables 2/3 lazy form requires %d", pr.Mults, wantM)
	}
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// checkResources holds one phase to the scratchpad, stream and transpose
// budgets. The scratchpad model is the operand tile each unit must hold to
// run the phase: its slot share of every channel of every polynomial
// (Fig. 5b), at the RNS word size.
func checkResources(r *Report, i int, cfg arch.Config, op *trace.Op, ph *sched.Phase, pr *PhaseReport) {
	ch := op.Channels
	if op.SrcChannels > ch {
		ch = op.SrcChannels
	}
	bits := int64(cfg.SlotsPerUnit(op.N)) * int64(ch) * int64(op.Polys) * int64(cfg.WordBits)
	pr.ScratchpadBytes = (bits + 7) / 8
	if pr.ScratchpadBytes > cfg.LocalScratchpadBytes {
		r.addf(i, "scratchpad", "operand tile needs %d B per unit; the private scratchpad holds %d B",
			pr.ScratchpadBytes, cfg.LocalScratchpadBytes)
	}
	if ph.StreamBytes != op.StreamBytes {
		r.addf(i, "stream", "streams %d bytes; the op streams %d", ph.StreamBytes, op.StreamBytes)
	}
	var wantT int64
	if (op.Kind == trace.KindNTT || op.Kind == trace.KindINTT) && !op.Local && op.N > cfg.Units {
		wantT = int64(op.N) * int64(op.Channels) * int64(op.Polys)
	}
	if ph.TransposeElems != wantT {
		r.addf(i, "transpose", "moves %d elements through the transpose file; the 4-step shape requires %d",
			ph.TransposeElems, wantT)
	}
}

// shapeAccum returns the accumulation depth the operator shape dictates for
// an accumulating family: pinned depths come from the legality table, the
// two shape-driven families from the op (Bconv accumulates over source
// channels, DecompPolyMult over dnum digit groups).
func shapeAccum(label string, spec metaop.Spec, op *trace.Op) (int, bool) {
	if spec.FixedAccum > 0 {
		return spec.FixedAccum, true
	}
	if op == nil {
		return 0, false
	}
	switch label {
	case "bconv-acc":
		return op.SrcChannels, true
	case "decomp-polymult":
		return op.Dnum, true
	}
	return 0, false
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
