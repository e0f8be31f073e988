// Package alchemist is the public API of this reproduction of
// "Alchemist: A Unified Accelerator Architecture for Cross-Scheme Fully
// Homomorphic Encryption" (DAC 2024).
//
// It bundles four layers:
//
//   - Live FHE schemes (internal/ckks, internal/bgv, internal/tfhe, plus
//     the internal/bridge cross-scheme switch): functional RNS-CKKS, BGV,
//     BFV and TFHE implementations used as CPU baselines and correctness
//     ground truth. Construct them with NewCKKS, NewBGV and NewTFHE.
//   - Workload graphs (internal/workload): operation DAGs for every
//     benchmark in the paper's evaluation.
//   - The accelerator model (internal/metaop, internal/arch, internal/sim):
//     Meta-OP lowering and the cycle-level Alchemist simulator.
//   - Baselines and reports (internal/baseline, internal/bench): modular
//     accelerator models and regeneration of every table and figure.
//
// Quick start:
//
//	cfg := alchemist.DefaultArch()
//	g := alchemist.Workloads().Cmult()
//	res, err := alchemist.SimulateContext(ctx, cfg, g,
//		alchemist.WithTimeout(time.Second))
//
// Batch evaluation (many (config, graph) pairs, shared worker pool and
// memo cache):
//
//	eng := alchemist.NewEngine(alchemist.WithWorkers(8))
//	defer eng.Close()
//	results, err := eng.Run(ctx,
//		alchemist.SimJob(cfg, g1),
//		alchemist.BaselineJob(alchemist.Baselines()[0], g2))
package alchemist

import (
	"context"
	"fmt"
	"time"

	"alchemist/internal/arch"
	"alchemist/internal/area"
	"alchemist/internal/baseline"
	"alchemist/internal/bench"
	"alchemist/internal/bgv"
	"alchemist/internal/ckks"
	"alchemist/internal/engine"
	"alchemist/internal/errs"
	"alchemist/internal/sim"
	"alchemist/internal/tfhe"
	"alchemist/internal/tokens"
	"alchemist/internal/trace"
	"alchemist/internal/workload"
)

// Core model types.
type (
	// ArchConfig is an Alchemist hardware configuration.
	ArchConfig = arch.Config
	// Graph is a workload operation DAG.
	Graph = trace.Graph
	// Result is a cycle-simulation outcome.
	Result = sim.Result
	// Report is a regenerated paper table or figure.
	Report = bench.Report
	// AreaBreakdown is a Table 5-style area report.
	AreaBreakdown = area.Breakdown
	// BaselineConfig is a modular-accelerator model configuration.
	BaselineConfig = baseline.Config
	// BaselineResult is a baseline simulation outcome.
	BaselineResult = baseline.Result
)

// Scheme types for live FHE computation.
type (
	// CKKSParams parameterizes the approximate arithmetic scheme.
	CKKSParams = ckks.Parameters
	// BGVParams parameterizes the exact arithmetic scheme.
	BGVParams = bgv.Parameters
	// TFHEParams parameterizes the logic scheme.
	TFHEParams = tfhe.Params
)

// Batch-evaluation engine types (internal/engine re-exports).
type (
	// Engine is a concurrent batch evaluator for simulation jobs.
	Engine = engine.Engine
	// Job is one (ArchConfig|BaselineConfig, Graph) evaluation.
	Job = engine.Job
	// JobResult is the outcome of one engine job.
	JobResult = engine.Result
	// EngineStats is an engine's observable counter snapshot.
	EngineStats = engine.Stats
	// Cache is a shareable memo cache of simulation outcomes.
	Cache = engine.Cache
	// Option configures an Engine or a one-shot evaluation.
	Option = engine.Option
)

// Sentinel errors. Every failure returned by Simulate, SimulateBaseline,
// the context variants and the engine wraps one of these; match with
// errors.Is.
var (
	// ErrCanceled reports an evaluation stopped by context cancellation.
	ErrCanceled = errs.ErrCanceled
	// ErrTimeout reports an evaluation stopped by a deadline.
	ErrTimeout = errs.ErrTimeout
	// ErrGraphCycle reports a workload graph that is not a forward-ordered DAG.
	ErrGraphCycle = errs.ErrGraphCycle
	// ErrBadConfig reports an invalid architecture, baseline or graph shape.
	ErrBadConfig = errs.ErrBadConfig
	// ErrIllegalStream reports a compiled Meta-OP program that
	// violates the §5.3 architectural contract; raised by evaluations run
	// under WithVerifyStreams.
	ErrIllegalStream = errs.ErrIllegalStream
)

// DefaultArch returns the paper's design point: 128 computing units × 16
// Meta-OP cores, 64+2 MB on-chip, 1 TB/s HBM at 1 GHz.
func DefaultArch() ArchConfig { return arch.Default() }

// NewEngine starts a batch-evaluation engine. Close it when done.
func NewEngine(opts ...Option) *Engine { return engine.New(opts...) }

// NewCache returns an empty memo cache, shareable across engines via
// WithCache.
func NewCache() *Cache { return engine.NewCache() }

// SimJob describes an Alchemist simulation for the engine.
func SimJob(cfg ArchConfig, g *Graph) Job { return engine.SimJob(cfg, g) }

// BaselineJob describes a baseline simulation for the engine.
func BaselineJob(cfg BaselineConfig, g *Graph) Job { return engine.BaselineJob(cfg, g) }

// WithWorkers sets the evaluation pool size (default runtime.NumCPU).
func WithWorkers(n int) Option { return engine.WithWorkers(n) }

// SetComputeBudget retunes the process-wide compute-token budget (default
// GOMAXPROCS) shared by the engine's job parallelism and the ring layer's
// limb/block parallelism: the two compose additively against this one
// budget, so enabling both never oversubscribes the machine. Values below 1
// clamp to 1.
func SetComputeBudget(n int) { tokens.SetBudget(n) }

// ComputeBudget reports the configured compute-token budget.
func ComputeBudget() int { return tokens.Budget() }

// WithTimeout bounds each job's wall time.
func WithTimeout(d time.Duration) Option { return engine.WithTimeout(d) }

// WithCache shares a memo cache across engines; nil disables caching.
func WithCache(c *Cache) Option { return engine.WithCache(c) }

// WithVerifyStreams statically verifies each Alchemist job's compiled
// Meta-OP streams before simulating; violations fail with ErrIllegalStream.
func WithVerifyStreams(on bool) Option { return engine.WithVerifyStreams(on) }

// SimulateContext runs a workload graph on an Alchemist configuration,
// honoring ctx cancellation and the given options.
func SimulateContext(ctx context.Context, cfg ArchConfig, g *Graph, opts ...Option) (Result, error) {
	res := engine.Evaluate(ctx, engine.SimJob(cfg, g), opts...)
	return res.Sim, res.Err
}

// SimulateBaselineContext runs a workload graph on a modular baseline
// accelerator, honoring ctx cancellation and the given options.
func SimulateBaselineContext(ctx context.Context, cfg BaselineConfig, g *Graph, opts ...Option) (BaselineResult, error) {
	res := engine.Evaluate(ctx, engine.BaselineJob(cfg, g), opts...)
	return res.Baseline, res.Err
}

// Simulate runs a workload graph on an Alchemist configuration. It is
// SimulateContext with a background context.
func Simulate(cfg ArchConfig, g *Graph) (Result, error) {
	return SimulateContext(context.Background(), cfg, g)
}

// SimulateBaseline runs a workload graph on a modular baseline accelerator.
// It is SimulateBaselineContext with a background context.
func SimulateBaseline(cfg BaselineConfig, g *Graph) (BaselineResult, error) {
	return SimulateBaselineContext(context.Background(), cfg, g)
}

// Area returns the analytical area breakdown of a configuration
// (reproducing Table 5 at the default design point).
func Area(cfg ArchConfig) AreaBreakdown { return area.Estimate(cfg) }

// Baselines returns the modular accelerator models of the paper's
// comparison (F1, BTS, ARK, CraterLake, SHARP, Matcha, Strix).
func Baselines() []BaselineConfig {
	out := []BaselineConfig{baseline.F1()}
	out = append(out, baseline.ArithmeticBaselines()...)
	out = append(out, baseline.LogicBaselines()...)
	return out
}

// Reports regenerates every table and figure of the paper's evaluation.
func Reports() []*Report { return bench.All() }

// WorkloadSet builds the benchmark graphs at the paper's parameter points.
type WorkloadSet struct {
	Shape workload.CKKSShape
}

// Workloads returns a builder at the Table 7 parameter point (N=2^16,
// L=44 channels, dnum=4).
func Workloads() WorkloadSet { return WorkloadSet{Shape: workload.PaperShape()} }

// AppWorkloads returns a builder at the application point (seed-expanded
// evaluation keys, as the Figure 6 schedules assume).
func AppWorkloads() WorkloadSet { return WorkloadSet{Shape: workload.AppShape()} }

// Pmult returns the plaintext-multiplication graph.
func (w WorkloadSet) Pmult() *Graph { return workload.Pmult(w.Shape) }

// Hadd returns the homomorphic-addition graph.
func (w WorkloadSet) Hadd() *Graph { return workload.Hadd(w.Shape) }

// Keyswitch returns the hybrid key-switch graph.
func (w WorkloadSet) Keyswitch() *Graph { return workload.Keyswitch(w.Shape) }

// Cmult returns the ciphertext-multiplication graph.
func (w WorkloadSet) Cmult() *Graph { return workload.Cmult(w.Shape) }

// Rotation returns the slot-rotation graph.
func (w WorkloadSet) Rotation() *Graph { return workload.Rotation(w.Shape) }

// Bootstrap returns the fully-packed CKKS bootstrapping graph.
func (w WorkloadSet) Bootstrap() *Graph {
	return workload.Bootstrap(w.Shape, workload.DefaultBootstrapConfig())
}

// HELR returns one bootstrapping-amortized HELR-1024 block.
func (w WorkloadSet) HELR() *Graph {
	return workload.HELRBlock(w.Shape, workload.DefaultHELRConfig(), workload.DefaultBootstrapConfig())
}

// LoLaMNIST returns the LoLa-MNIST inference graph.
func (w WorkloadSet) LoLaMNIST(encryptedWeights bool) *Graph {
	return workload.LoLaMNIST(workload.DefaultLoLaConfig(encryptedWeights))
}

// PBSSet selects a TFHE programmable-bootstrapping parameter set.
type PBSSet int

// The paper's two TFHE evaluation sets. The values mirror the paper's
// numbering, so existing TFHEPBS(1, …) / TFHEPBS(2, …) calls keep working.
const (
	// PBSSet1 is the TFHE-lib standard set (N=1024, n=630, l=3).
	PBSSet1 PBSSet = 1
	// PBSSet2 is the larger-ring set (N=2048, n=742, l=4).
	PBSSet2 PBSSet = 2
)

// String names the set like the paper ("SetI", "SetII").
func (s PBSSet) String() string {
	switch s {
	case PBSSet1:
		return "SetI"
	case PBSSet2:
		return "SetII"
	}
	return fmt.Sprintf("PBSSet(%d)", int(s))
}

// shape resolves the set's dimensions; unknown values fall back to Set I,
// matching the historical TFHEPBS(set int, …) behavior.
func (s PBSSet) shape() workload.PBSShape {
	if s == PBSSet2 {
		return workload.PBSSetII()
	}
	return workload.PBSSetI()
}

// TFHEPBS returns a batched TFHE programmable-bootstrapping graph for the
// given parameter set.
func (w WorkloadSet) TFHEPBS(set PBSSet, batch int) *Graph {
	return workload.PBSBatch(set.shape(), batch)
}

// CrossScheme returns the mixed CKKS+TFHE workload motivating the unified
// design.
func (w WorkloadSet) CrossScheme() *Graph {
	return workload.CrossScheme(w.Shape, workload.PBSSetI(), 2, 1, 128)
}

// Live scheme constructors -----------------------------------------------

// CKKS bundles a live CKKS instance (context, encoder, keys, evaluator).
type CKKS struct {
	Context   *ckks.Context
	Encoder   *ckks.Encoder
	Secret    *ckks.SecretKey
	Public    *ckks.PublicKey
	Keys      *ckks.EvaluationKeySet
	Encryptor *ckks.Encryptor
	Decryptor *ckks.Decryptor
	Evaluator *ckks.Evaluator
}

// NewCKKS instantiates a live CKKS scheme with rotation keys for the given
// steps.
func NewCKKS(params CKKSParams, rotations []int, seed int64) (*CKKS, error) {
	ctx, err := ckks.NewContext(params)
	if err != nil {
		return nil, err
	}
	kg := ckks.NewKeyGenerator(ctx, seed)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	eks := kg.GenEvaluationKeySet(sk, rotations, true)
	return &CKKS{
		Context:   ctx,
		Encoder:   ckks.NewEncoder(ctx),
		Secret:    sk,
		Public:    pk,
		Keys:      eks,
		Encryptor: ckks.NewEncryptor(ctx, pk, seed+1),
		Decryptor: ckks.NewDecryptor(ctx, sk),
		Evaluator: ckks.NewEvaluator(ctx, eks),
	}, nil
}

// CKKSTestParams returns a fast functional CKKS parameter set.
func CKKSTestParams() CKKSParams { return ckks.TestParams() }

// BGV bundles a live BGV instance (exact modular arithmetic over Z_t).
type BGV struct {
	Context   *bgv.Context
	Encoder   *bgv.Encoder
	Secret    *bgv.SecretKey
	Public    *bgv.PublicKey
	Encryptor *bgv.Encryptor
	Decryptor *bgv.Decryptor
	Evaluator *bgv.Evaluator
}

// NewBGV instantiates a live BGV scheme.
func NewBGV(params BGVParams, seed int64) (*BGV, error) {
	ctx, err := bgv.NewContext(params)
	if err != nil {
		return nil, err
	}
	kg := bgv.NewKeyGenerator(ctx, seed)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinKey(sk)
	return &BGV{
		Context:   ctx,
		Encoder:   bgv.NewEncoder(ctx),
		Secret:    sk,
		Public:    pk,
		Encryptor: bgv.NewEncryptor(ctx, pk, seed+1),
		Decryptor: bgv.NewDecryptor(ctx, sk),
		Evaluator: bgv.NewEvaluator(ctx, rlk),
	}, nil
}

// BGVTestParams returns a fast functional BGV parameter set (t = 65537).
func BGVTestParams() BGVParams { return bgv.TestParams() }

// NewTFHE instantiates a live TFHE scheme (keys, bootstrapping key, gates).
func NewTFHE(params TFHEParams, seed int64) (*tfhe.Scheme, error) {
	return tfhe.NewScheme(params, seed)
}

// TFHEDefaultParams returns the standard gate-bootstrapping parameter set.
func TFHEDefaultParams() TFHEParams { return tfhe.DefaultParams() }

// TFHEFastParams returns a reduced set for quick experiments.
func TFHEFastParams() TFHEParams { return tfhe.FastTestParams() }

// SchemeSwitch returns the CKKS→bridge→TFHE pipeline as one workload.
func (w WorkloadSet) SchemeSwitch(values int) *Graph {
	return workload.SchemeSwitch(w.Shape, workload.PBSSetI(), values)
}
