// Package errs defines the sentinel errors shared by the simulation stack.
// Every layer (trace validation, the Alchemist simulator, the baseline
// models, the batch-evaluation engine and the public alchemist package)
// wraps its failures around these values with %w, so callers can classify
// outcomes with errors.Is instead of string matching:
//
//	res, err := alchemist.SimulateContext(ctx, cfg, g)
//	if errors.Is(err, alchemist.ErrTimeout) { ... }
//
// The package sits below every other package in the module and imports
// nothing but the standard library.
package errs

import "errors"

var (
	// ErrCanceled marks work abandoned because its context was canceled
	// before or while the job ran.
	ErrCanceled = errors.New("evaluation canceled")

	// ErrTimeout marks work abandoned because a per-job or engine-wide
	// deadline expired.
	ErrTimeout = errors.New("evaluation timed out")

	// ErrGraphCycle marks a workload graph whose dependency structure is not
	// a forward-ordered DAG (an op depending on itself or a later op).
	ErrGraphCycle = errors.New("workload graph is not a forward-ordered DAG")

	// ErrBadConfig marks an invalid hardware configuration or a structurally
	// malformed op (empty shape, missing Bconv/DecompPolyMult parameters).
	ErrBadConfig = errors.New("invalid configuration")

	// ErrIllegalStream marks a compiled Meta-OP program that violates the
	// architectural contract (§5.3): an instruction outside the Meta-OP
	// legality table, a scratchpad or transpose resource violation, a
	// Meta-OP conservation failure, or broken graph linkage. Raised by
	// internal/streamcheck and surfaced through the engine's
	// WithVerifyStreams option.
	ErrIllegalStream = errors.New("illegal Meta-OP stream")
)
