package streamcheck_test

import (
	"errors"
	"sort"
	"strings"
	"testing"

	"alchemist/internal/arch"
	"alchemist/internal/errs"
	"alchemist/internal/sched"
	"alchemist/internal/streamcheck"
	"alchemist/internal/trace"
	"alchemist/internal/workload"
)

// benchGraphs mirrors the benchmark set of cmd/alchemist: every workload
// the command can run is statically verified here.
func benchGraphs() map[string]*trace.Graph {
	paper := workload.PaperShape()
	app := workload.AppShape()
	boot := workload.DefaultBootstrapConfig()
	return map[string]*trace.Graph{
		"pmult":     workload.Pmult(paper),
		"hadd":      workload.Hadd(paper),
		"keyswitch": workload.Keyswitch(paper),
		"cmult":     workload.Cmult(paper),
		"rotation":  workload.Rotation(paper),
		"bootstrap": workload.Bootstrap(app, boot),
		"helr":      workload.HELRBlock(app, workload.DefaultHELRConfig(), boot),
		"lola":      workload.LoLaMNIST(workload.DefaultLoLaConfig(false)),
		"lola-enc":  workload.LoLaMNIST(workload.DefaultLoLaConfig(true)),
		"pbs1":      workload.PBSBatch(workload.PBSSetI(), 128),
		"pbs2":      workload.PBSBatch(workload.PBSSetII(), 128),
		"cross":     workload.CrossScheme(app, workload.PBSSetI(), 2, 1, 128),
		"switch":    workload.SchemeSwitch(app, workload.PBSSetI(), 128),
	}
}

func sortedNames(m map[string]*trace.Graph) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestBenchmarksVerifyClean compiles every benchmark workload at the paper
// design point and requires a clean report with a sane census.
func TestBenchmarksVerifyClean(t *testing.T) {
	graphs := benchGraphs()
	for _, name := range sortedNames(graphs) {
		g := graphs[name]
		p, err := sched.Compile(arch.Default(), g)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		r, err := streamcheck.Check(g, p)
		if err != nil {
			t.Fatalf("%s: check: %v", name, err)
		}
		if !r.Clean() {
			for i, f := range r.Findings {
				if i == 5 {
					t.Errorf("%s: ... %d more", name, len(r.Findings)-i)
					break
				}
				t.Errorf("%s: %s", name, f)
			}
			continue
		}
		if len(r.Phases) != len(g.Ops) {
			t.Errorf("%s: %d phase reports for %d ops", name, len(r.Phases), len(g.Ops))
		}
		if r.MetaOps <= 0 {
			t.Errorf("%s: no Meta-OPs in census", name)
		}
		if r.MaxScratchpadBytes <= 0 || r.MaxScratchpadBytes > r.ScratchpadCapacity {
			t.Errorf("%s: scratchpad census %d outside (0, %d]",
				name, r.MaxScratchpadBytes, r.ScratchpadCapacity)
		}
		if err := streamcheck.Verify(g, p); err != nil {
			t.Errorf("%s: Verify on a clean program: %v", name, err)
		}
	}
}

// TestKeyswitchStreamBoundIsInformational: keyswitch is legitimately
// evk-bandwidth-bound in the paper, so its report must flag stream-bound
// phases while staying clean.
func TestKeyswitchStreamBoundIsInformational(t *testing.T) {
	g := workload.Keyswitch(workload.PaperShape())
	p, err := sched.Compile(arch.Default(), g)
	if err != nil {
		t.Fatal(err)
	}
	r, err := streamcheck.Check(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Clean() {
		t.Fatalf("keyswitch not clean: %s", r.Findings[0])
	}
	if r.StreamBoundPhases == 0 {
		t.Error("keyswitch reports no stream-bound phases; evk streaming should outrun the double-buffer window")
	}
}

// TestScratchpadOverflowWrapsSentinel: a configuration whose scratchpad
// cannot hold one operand tile must fail verification with
// errs.ErrIllegalStream.
func TestScratchpadOverflowWrapsSentinel(t *testing.T) {
	g := workload.Pmult(workload.PaperShape())
	cfg := arch.Default()
	cfg.LocalScratchpadBytes = 1024
	_, err := streamcheck.CompileAndVerify(cfg, g)
	if err == nil {
		t.Fatal("CompileAndVerify accepted a 1 KB scratchpad")
	}
	if !errors.Is(err, errs.ErrIllegalStream) {
		t.Errorf("error %v does not wrap ErrIllegalStream", err)
	}
}

// TestCheckRejectsUnusableInputs: nil or invalid inputs are errors wrapping
// errs.ErrBadConfig, not findings.
func TestCheckRejectsUnusableInputs(t *testing.T) {
	if _, err := streamcheck.Check(nil, nil); !errors.Is(err, errs.ErrBadConfig) {
		t.Errorf("nil inputs: %v", err)
	}
	g := workload.Pmult(workload.PaperShape())
	if _, err := streamcheck.Check(g, &sched.Program{}); !errors.Is(err, errs.ErrBadConfig) {
		t.Errorf("zero-value program: %v", err)
	}
}

// TestReportRendering: the verdict line and the detail table must include
// the name and the census.
func TestReportRendering(t *testing.T) {
	g := workload.Cmult(workload.PaperShape())
	p, err := sched.Compile(arch.Default(), g)
	if err != nil {
		t.Fatal(err)
	}
	r, err := streamcheck.Check(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if s := r.String(); !strings.Contains(s, g.Name) || !strings.Contains(s, "clean") {
		t.Errorf("verdict line %q", s)
	}
	if d := r.Detail(); !strings.Contains(d, "meta-ops") {
		t.Errorf("detail table missing header: %q", d[:80])
	}
}
