package sched

import (
	"testing"

	"alchemist/internal/arch"
	"alchemist/internal/metaop"
	"alchemist/internal/sim"
	"alchemist/internal/trace"
	"alchemist/internal/workload"
)

func compile(t testing.TB, g *trace.Graph) *Program {
	t.Helper()
	p, err := Compile(arch.Default(), g)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPmultExactCycles(t *testing.T) {
	// The per-unit interpreter must reproduce the Table 7 contract too.
	p := compile(t, workload.Pmult(workload.PaperShape()))
	res := Execute(p)
	if res.Cycles != 1056 {
		t.Fatalf("per-unit Pmult %d cycles, want 1056", res.Cycles)
	}
	if res.Imbalance != 1.0 {
		t.Fatalf("Pmult should balance perfectly, got %.3f", res.Imbalance)
	}
}

func TestMatchesAggregateSimulator(t *testing.T) {
	// Per-unit execution must agree with the aggregate model within the
	// rounding introduced by per-unit quantization.
	s := workload.PaperShape()
	app := workload.AppShape()
	graphs := []*trace.Graph{
		workload.Pmult(s),
		workload.Hadd(s),
		workload.Keyswitch(s),
		workload.Cmult(s),
		workload.Bootstrap(app, workload.DefaultBootstrapConfig()),
		workload.PBSBatch(workload.PBSSetI(), 128),
	}
	for _, g := range graphs {
		agg, err := sim.Simulate(arch.Default(), g)
		if err != nil {
			t.Fatal(err)
		}
		per := Execute(compile(t, g))
		ratio := float64(per.Cycles) / float64(agg.Cycles)
		if ratio < 0.95 || ratio > 1.10 {
			t.Errorf("%s: per-unit %d vs aggregate %d cycles (ratio %.3f)",
				g.Name, per.Cycles, agg.Cycles, ratio)
		}
	}
}

func TestSlotPartitioningBalances(t *testing.T) {
	// Every unit holds the same slots of every channel, so all CKKS phases
	// must split evenly (imbalance ≈ 1).
	g := workload.Keyswitch(workload.PaperShape())
	res := Execute(compile(t, g))
	if res.Imbalance > 1.02 {
		t.Fatalf("keyswitch imbalance %.3f, want ≈1.0", res.Imbalance)
	}
}

func TestLocalityContract(t *testing.T) {
	// §5.3: only (I)NTT phases cross the transpose RF; everything else is
	// unit-local. TFHE batched PBS is entirely local.
	p := compile(t, workload.Keyswitch(workload.PaperShape()))
	for _, ph := range p.Phases {
		local := ph.LocalOnly()
		isNTT := ph.Kind == trace.KindNTT || ph.Kind == trace.KindINTT
		if !isNTT && !local {
			t.Errorf("phase %s (%v) should be unit-local", ph.Label, ph.Kind)
		}
		if isNTT && local {
			t.Errorf("global NTT phase %s should cross the transpose RF", ph.Label)
		}
	}
	pbs := compile(t, workload.PBSBatch(workload.PBSSetI(), 128))
	sum := Summarize(pbs)
	if sum.LocalPhases != sum.Phases {
		t.Errorf("batched PBS must be fully unit-local: %d/%d", sum.LocalPhases, sum.Phases)
	}
	if sum.TransposeElems != 0 {
		t.Error("batched PBS must not use the transpose RF")
	}
}

func TestMetaOpConservation(t *testing.T) {
	// Compilation must neither create nor drop Meta-OPs.
	g := workload.Cmult(workload.PaperShape())
	p := compile(t, g)
	var compiled int64
	for _, ph := range p.Phases {
		for _, in := range ph.Instrs {
			compiled += in.Count
		}
	}
	var lowered int64
	for _, op := range g.Ops {
		for _, b := range metaop.Lower(op) {
			lowered += b.Count
		}
	}
	if compiled != lowered {
		t.Fatalf("Meta-OPs: compiled %d != lowered %d", compiled, lowered)
	}
}

func TestCompileValidation(t *testing.T) {
	bad := arch.Default()
	bad.Lanes = 16
	if _, err := Compile(bad, workload.Pmult(workload.PaperShape())); err == nil {
		t.Fatal("expected lane-width error")
	}
	bad2 := arch.Default()
	bad2.Units = 0
	if _, err := Compile(bad2, workload.Pmult(workload.PaperShape())); err == nil {
		t.Fatal("expected config error")
	}
	g := &trace.Graph{}
	g.Ops = append(g.Ops, &trace.Op{ID: 0, Kind: trace.KindNTT, N: 3, Channels: 1, Polys: 1})
	if _, err := Compile(arch.Default(), g); err == nil {
		t.Fatal("expected graph error")
	}
}

func TestStreamGatingMatchesSim(t *testing.T) {
	// The evk-bound keyswitch must stay memory-bound in the per-unit
	// interpreter as well.
	g := workload.KeyswitchThroughput(workload.PaperShape(), 4)
	res := Execute(compile(t, g))
	if res.MemCycles == 0 {
		t.Fatal("keyswitch must stream evks")
	}
	if res.Cycles < res.MemCycles {
		t.Fatal("makespan cannot beat the stream")
	}
}

// TestUnitCountSplitsEveryBucket holds the slot-partition rule to its
// contract on every Meta-OP run of every benchmark workload (the set
// cmd/alchemist runs): the unit shares sum to the run, differ by at most
// one, and a run shorter than the unit count leaves the units past it idle.
// Besides the paper's 128 units, the runs are split over 127 units, which
// leaves a remainder on almost every run, and over 4096, more than the
// shorter runs have Meta-OPs.
func TestUnitCountSplitsEveryBucket(t *testing.T) {
	paper := workload.PaperShape()
	app := workload.AppShape()
	boot := workload.DefaultBootstrapConfig()
	graphs := []*trace.Graph{
		workload.Pmult(paper),
		workload.Hadd(paper),
		workload.Keyswitch(paper),
		workload.Cmult(paper),
		workload.Rotation(paper),
		workload.Bootstrap(app, boot),
		workload.HELRBlock(app, workload.DefaultHELRConfig(), boot),
		workload.LoLaMNIST(workload.DefaultLoLaConfig(false)),
		workload.LoLaMNIST(workload.DefaultLoLaConfig(true)),
		workload.PBSBatch(workload.PBSSetI(), 128),
		workload.PBSBatch(workload.PBSSetII(), 128),
		workload.CrossScheme(app, workload.PBSSetI(), 2, 1, 128),
		workload.SchemeSwitch(app, workload.PBSSetI(), 128),
	}
	// Runs repeat across phases; each distinct count is split once.
	counts := map[int64]bool{}
	for _, g := range graphs {
		for _, ph := range compile(t, g).Phases {
			for _, in := range ph.Instrs {
				counts[in.Count] = true
			}
		}
	}
	short := 0
	for count := range counts {
		if count < 4096 {
			short++
		}
	}
	if short == 0 {
		t.Fatal("no run shorter than 4096 Meta-OPs; the idle-unit case goes untested")
	}
	for _, units := range []int{arch.Default().Units, 127, 4096} {
		for count := range counts {
			var sum int64
			lo, hi := count, int64(0)
			for u := 0; u < units; u++ {
				c := UnitCount(count, u, units)
				sum += c
				lo, hi = min(lo, c), max(hi, c)
				if int64(u) >= count && c != 0 {
					t.Fatalf("%d units: unit %d gets %d of a %d-run", units, u, c, count)
				}
			}
			if sum != count || hi-lo > 1 {
				t.Fatalf("%d units: a %d-run splits to sum %d, spread %d..%d", units, count, sum, lo, hi)
			}
		}
	}
	t.Logf("%d distinct run lengths, %d shorter than 4096", len(counts), short)
}
