package streamcheck

import (
	"fmt"

	"alchemist/internal/arch"
	"alchemist/internal/errs"
	"alchemist/internal/sched"
	"alchemist/internal/trace"
)

// Verify runs Check and folds a non-clean report into a single error
// wrapping errs.ErrIllegalStream (classifiable with errors.Is), quoting the
// first finding and the total count.
func Verify(g *trace.Graph, p *sched.Program) error {
	r, err := Check(g, p)
	if err != nil {
		return err
	}
	if r.Clean() {
		return nil
	}
	return fmt.Errorf("streamcheck: %s: %d finding(s), first: %s: %w",
		r.Name, len(r.Findings), r.Findings[0], errs.ErrIllegalStream)
}

// CompileAndVerify compiles the graph and verifies the result, returning
// the program only when it satisfies the whole §5.3 contract.
func CompileAndVerify(cfg arch.Config, g *trace.Graph) (*sched.Program, error) {
	p, err := sched.Compile(cfg, g)
	if err != nil {
		return nil, err
	}
	if err := Verify(g, p); err != nil {
		return nil, err
	}
	return p, nil
}
