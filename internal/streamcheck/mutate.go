package streamcheck

import (
	"alchemist/internal/metaop"
	"alchemist/internal/sched"
)

// Mutator is one systematic single-defect transformation of a compiled
// program, used by the self-test harness: every mutator attacks exactly one
// invariant the checker claims to enforce, so an escaped mutant is a hole
// in the checker. Apply mutates the program in place (callers pass a
// sched.Program.Clone) and reports whether it found an applicable site; a
// false return means the program has no site for this defect class and the
// harness skips it.
type Mutator struct {
	Name  string
	Doc   string
	Apply func(p *sched.Program) bool
}

// Mutators returns the registry of program mutators, in a fixed order.
func Mutators() []Mutator {
	return []Mutator{
		{
			Name: "cycles-off-by-one",
			Doc:  "adds one cycle to an instruction, violating the Cycles = n+2 Meta-OP timing row",
			Apply: func(p *sched.Program) bool {
				in := firstInstr(p)
				if in == nil {
					return false
				}
				in.Cycles++
				return true
			},
		},
		{
			Name: "naccum-inflate",
			Doc:  "deepens an accumulating Meta-OP by one (keeping Cycles = n+2 consistent), violating the operator-shape depth and the raw-mult conservation",
			Apply: func(p *sched.Program) bool {
				in := firstAccumulating(p)
				if in == nil {
					return false
				}
				in.NAccum++
				in.Cycles++
				return true
			},
		},
		{
			Name: "count-drop",
			Doc:  "removes one Meta-OP from an instruction run, violating conservation against the shared lowering",
			Apply: func(p *sched.Program) bool {
				in := firstInstr(p)
				if in == nil {
					return false
				}
				in.Count--
				return true
			},
		},
		{
			Name: "scratchpad-overflow",
			Doc:  "shrinks the per-unit scratchpad below any operand tile, so every phase overflows its live set",
			Apply: func(p *sched.Program) bool {
				if len(p.Phases) == 0 {
					return false
				}
				p.Cfg.LocalScratchpadBytes = 1
				return true
			},
		},
		{
			Name: "dropped-transpose",
			Doc:  "erases the transpose crossing of a non-local NTT phase, violating the 4-step shape",
			Apply: func(p *sched.Program) bool {
				for i := range p.Phases {
					if p.Phases[i].TransposeElems > 0 {
						p.Phases[i].TransposeElems = 0
						return true
					}
				}
				return false
			},
		},
		{
			Name: "transpose-inflate",
			Doc:  "moves one extra element through the transpose register file, violating the 4-step element count",
			Apply: func(p *sched.Program) bool {
				if len(p.Phases) == 0 {
					return false
				}
				p.Phases[0].TransposeElems++
				return true
			},
		},
		{
			Name: "phantom-phase",
			Doc:  "appends a duplicate of the last phase, breaking the one-phase-per-op linkage",
			Apply: func(p *sched.Program) bool {
				if len(p.Phases) == 0 {
					return false
				}
				p.Phases = append(p.Phases, p.Phases[len(p.Phases)-1])
				return true
			},
		},
		{
			Name: "dep-scramble",
			Doc:  "drops one dependency edge from a phase, diverging from the graph's dependency structure",
			Apply: func(p *sched.Program) bool {
				for i := range p.Phases {
					if n := len(p.Phases[i].Deps); n > 0 {
						p.Phases[i].Deps = p.Phases[i].Deps[:n-1]
						return true
					}
				}
				return false
			},
		},
		{
			Name: "label-clobber",
			Doc:  "renames an instruction to a family outside the Meta-OP legality table",
			Apply: func(p *sched.Program) bool {
				in := firstInstr(p)
				if in == nil {
					return false
				}
				in.Label = "mutant-family"
				return true
			},
		},
		{
			Name: "pattern-swap",
			Doc:  "swaps an instruction's scratchpad access pattern, diverging from the family's Table 4 row",
			Apply: func(p *sched.Program) bool {
				in := firstInstr(p)
				if in == nil {
					return false
				}
				if in.Pattern == metaop.PatternSlots {
					in.Pattern = metaop.PatternChannel
				} else {
					in.Pattern = metaop.PatternSlots
				}
				return true
			},
		},
		{
			Name: "stream-inflate",
			Doc:  "streams one extra byte from HBM in a phase, violating stream-size conservation against the graph",
			Apply: func(p *sched.Program) bool {
				if len(p.Phases) == 0 {
					return false
				}
				p.Phases[0].StreamBytes++
				return true
			},
		},
		{
			Name: "opid-dangle",
			Doc:  "points the last phase past the end of the graph (or out of order), breaking op resolution",
			Apply: func(p *sched.Program) bool {
				if len(p.Phases) == 0 {
					return false
				}
				p.Phases[len(p.Phases)-1].OpID++
				return true
			},
		},
		{
			Name: "rename-program",
			Doc:  "renames the program away from its source graph",
			Apply: func(p *sched.Program) bool {
				p.Name += "-mutant"
				return true
			},
		},
	}
}

// firstInstr returns the first instruction of the program, or nil.
func firstInstr(p *sched.Program) *sched.Instr {
	for i := range p.Phases {
		if len(p.Phases[i].Instrs) > 0 {
			return &p.Phases[i].Instrs[0]
		}
	}
	return nil
}

// firstAccumulating returns the first instruction whose family is a true
// (M8A8)_nR8, or nil.
func firstAccumulating(p *sched.Program) *sched.Instr {
	for i := range p.Phases {
		for k := range p.Phases[i].Instrs {
			in := &p.Phases[i].Instrs[k]
			if s, ok := metaop.Specs[in.Label]; ok && s.Accumulating {
				return in
			}
		}
	}
	return nil
}
