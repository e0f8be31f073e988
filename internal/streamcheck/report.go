package streamcheck

import (
	"fmt"
	"strings"

	"alchemist/internal/trace"
)

// Finding is one contract violation located in the program. Phase is -1
// when the violation is program-level.
type Finding struct {
	Phase int
	Rule  string // instr, scratchpad, stream, transpose, conserve, linkage, label, config
	Msg   string
}

func (f Finding) String() string {
	if f.Phase < 0 {
		return fmt.Sprintf("[%s] %s", f.Rule, f.Msg)
	}
	return fmt.Sprintf("[%s] phase %d: %s", f.Rule, f.Phase, f.Msg)
}

// PhaseReport is the verified census of one compiled phase.
type PhaseReport struct {
	Index int
	OpID  int
	Kind  trace.Kind
	Label string

	MetaOps int64 // Meta-OPs across all units
	Mults   int64 // raw multiplier activations (lazy form)
	Cycles  int64 // occupancy of the slowest unit plus the transpose crossing

	// ScratchpadBytes is the per-unit operand tile the phase needs resident.
	ScratchpadBytes int64

	StreamBytes  int64
	StreamCycles int64
	// StreamBound marks a phase whose HBM stream outruns the double-buffer
	// window — informational, not a violation (keyswitch-class phases are
	// legitimately evk-bandwidth-bound).
	StreamBound bool

	TransposeElems int64
	Local          bool
}

// Report is the outcome of Check: the per-phase census plus every Finding.
type Report struct {
	Name     string
	Phases   []PhaseReport
	Findings []Finding

	MetaOps            int64
	Mults              int64
	LocalPhases        int
	StreamBoundPhases  int
	MaxScratchpadBytes int64
	ScratchpadCapacity int64
}

// Clean reports whether the program satisfies the whole contract.
func (r *Report) Clean() bool { return len(r.Findings) == 0 }

func (r *Report) addf(phase int, rule, format string, args ...any) {
	r.Findings = append(r.Findings, Finding{Phase: phase, Rule: rule, Msg: fmt.Sprintf(format, args...)})
}

// String renders the one-line verdict.
func (r *Report) String() string {
	verdict := "clean"
	if !r.Clean() {
		verdict = fmt.Sprintf("%d finding(s)", len(r.Findings))
	}
	return fmt.Sprintf("%s: %d phases (%d local, %d stream-bound), %d Meta-OPs, %d mults, scratchpad %d/%d B per unit: %s",
		r.Name, len(r.Phases), r.LocalPhases, r.StreamBoundPhases,
		r.MetaOps, r.Mults, r.MaxScratchpadBytes, r.ScratchpadCapacity, verdict)
}

// Detail renders the per-phase table and, when present, the findings —
// the -v output of `alchemist check`.
func (r *Report) Detail() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", r.String())
	fmt.Fprintf(&b, "  %5s %-14s %-24s %12s %14s %10s %12s %6s\n",
		"phase", "kind", "label", "meta-ops", "mults", "scratch B", "stream cyc", "flags")
	for _, pr := range r.Phases {
		var flags []string
		if pr.Local {
			flags = append(flags, "local")
		}
		if pr.StreamBound {
			flags = append(flags, "membound")
		}
		if pr.TransposeElems > 0 {
			flags = append(flags, "transpose")
		}
		fmt.Fprintf(&b, "  %5d %-14v %-24s %12d %14d %10d %12d %s\n",
			pr.Index, pr.Kind, clip(pr.Label, 24), pr.MetaOps, pr.Mults,
			pr.ScratchpadBytes, pr.StreamCycles, strings.Join(flags, ","))
	}
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "  FINDING %s\n", f)
	}
	return b.String()
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
