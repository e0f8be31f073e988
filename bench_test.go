// Benchmark harness: one testing.B benchmark per paper table/figure
// (regenerating the artifact from the models and reporting its headline
// metrics), plus live Go CPU measurements of the actual FHE operators that
// ground the CPU columns.
//
// Run: go test -bench=. -benchmem
package alchemist

import (
	"math/rand"
	"testing"

	"alchemist/internal/arch"
	"alchemist/internal/bench"
	"alchemist/internal/bgv"
	"alchemist/internal/ckks"
	"alchemist/internal/sim"
	"alchemist/internal/tfhe"
	"alchemist/internal/trace"
	"alchemist/internal/workload"
)

// --- Model benchmarks: tables -------------------------------------------

func simBench(b *testing.B, g *Graph, opsPerGraph float64) sim.Result {
	b.Helper()
	cfg := arch.Default()
	var res sim.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = sim.Simulate(cfg, g)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Cycles), "cycles")
	b.ReportMetric(res.ComputeUtilization, "util")
	if opsPerGraph > 0 {
		b.ReportMetric(opsPerGraph/res.Seconds, "modelops/s")
	}
	return res
}

func BenchmarkTable7_Pmult(b *testing.B) {
	simBench(b, workload.Pmult(workload.PaperShape()), 1)
}

func BenchmarkTable7_Hadd(b *testing.B) {
	simBench(b, workload.Hadd(workload.PaperShape()), 1)
}

func BenchmarkTable7_Keyswitch(b *testing.B) {
	simBench(b, workload.KeyswitchThroughput(workload.PaperShape(), 4), 4)
}

func BenchmarkTable7_Cmult(b *testing.B) {
	simBench(b, workload.CmultThroughput(workload.PaperShape(), 4), 4)
}

func BenchmarkTable7_Rotation(b *testing.B) {
	simBench(b, workload.RotationThroughput(workload.PaperShape(), 4), 4)
}

func reportBench(b *testing.B, gen func() *bench.Report) {
	b.Helper()
	var r *bench.Report
	for i := 0; i < b.N; i++ {
		r = gen()
	}
	b.ReportMetric(float64(len(r.Rows)), "rows")
}

func BenchmarkTable2_DecompPolyMult(b *testing.B) { reportBench(b, bench.Table2) }
func BenchmarkTable3_Modup(b *testing.B)          { reportBench(b, bench.Table3) }
func BenchmarkTable4_AccessPatterns(b *testing.B) { reportBench(b, bench.Table4) }
func BenchmarkTable5_Area(b *testing.B)           { reportBench(b, bench.Table5) }
func BenchmarkTable6_Resources(b *testing.B)      { reportBench(b, bench.Table6) }

// --- Model benchmarks: figures -------------------------------------------

func BenchmarkFig1_OperatorRatio(b *testing.B) { reportBench(b, bench.Figure1) }

func BenchmarkFig6a_Bootstrap(b *testing.B) {
	res := simBench(b, workload.Bootstrap(workload.AppShape(), workload.DefaultBootstrapConfig()), 0)
	b.ReportMetric(res.Seconds*1e3, "model-ms")
}

func BenchmarkFig6a_HELR(b *testing.B) {
	res := simBench(b, workload.HELRBlock(workload.AppShape(),
		workload.DefaultHELRConfig(), workload.DefaultBootstrapConfig()), 0)
	b.ReportMetric(res.Seconds*1e3/float64(workload.DefaultHELRConfig().BootstrapEvery), "model-ms/iter")
}

func BenchmarkFig6a_LoLaMNIST(b *testing.B) {
	res := simBench(b, workload.LoLaMNIST(workload.DefaultLoLaConfig(true)), 0)
	b.ReportMetric(res.Seconds*1e3, "model-ms")
}

func BenchmarkFig6a_PerfPerArea(b *testing.B) { reportBench(b, bench.Figure6aPerfArea) }

func BenchmarkFig6b_PBS(b *testing.B) {
	res := simBench(b, workload.PBSBatch(workload.PBSSetI(), 128), 128)
	b.ReportMetric(128/res.Seconds, "PBS/s")
}

func BenchmarkFig7a_MultOverhead(b *testing.B) { reportBench(b, bench.Figure7a) }
func BenchmarkFig7b_Utilization(b *testing.B)  { reportBench(b, bench.Figure7b) }

// --- Ablation benchmarks --------------------------------------------------

func BenchmarkAblation_LaneWidth(b *testing.B)     { reportBench(b, bench.AblationLaneWidth) }
func BenchmarkAblation_LazyReduction(b *testing.B) { reportBench(b, bench.AblationLazyReduction) }
func BenchmarkAblation_DataLayout(b *testing.B)    { reportBench(b, bench.AblationDataLayout) }
func BenchmarkAblation_UnitCount(b *testing.B)     { reportBench(b, bench.AblationUnitCount) }
func BenchmarkAblation_SRAMSize(b *testing.B)      { reportBench(b, bench.AblationSRAMSize) }

// --- Live CPU baselines ----------------------------------------------------
//
// These measure the actual Go implementations (the "CPU" rows of Table 7 in
// spirit; run at N=2^11 test parameters — absolute times are reported, not
// compared to the paper's Xeon numbers).

var cpuH *struct {
	ctx *ckks.Context
	enc *ckks.Encoder
	ev  *ckks.Evaluator
	ct1 *ckks.Ciphertext
	ct2 *ckks.Ciphertext
}

func cpuSetup(b *testing.B) *struct {
	ctx *ckks.Context
	enc *ckks.Encoder
	ev  *ckks.Evaluator
	ct1 *ckks.Ciphertext
	ct2 *ckks.Ciphertext
} {
	b.Helper()
	if cpuH != nil {
		return cpuH
	}
	params := ckks.TestParams()
	ctx, err := ckks.NewContext(params)
	if err != nil {
		b.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(ctx, 1)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	eks := kg.GenEvaluationKeySet(sk, []int{1}, false)
	enc := ckks.NewEncoder(ctx)
	et := ckks.NewEncryptor(ctx, pk, 2)
	rng := rand.New(rand.NewSource(3))
	z := make([]complex128, params.Slots())
	for i := range z {
		z[i] = complex(rng.Float64(), 0)
	}
	level := params.MaxLevel()
	pt, _ := enc.Encode(z, level, params.Scale)
	cpuH = &struct {
		ctx *ckks.Context
		enc *ckks.Encoder
		ev  *ckks.Evaluator
		ct1 *ckks.Ciphertext
		ct2 *ckks.Ciphertext
	}{
		ctx: ctx,
		enc: enc,
		ev:  ckks.NewEvaluator(ctx, eks),
		ct1: et.Encrypt(pt, level, params.Scale),
		ct2: et.Encrypt(pt, level, params.Scale),
	}
	return cpuH
}

func BenchmarkCPUHadd(b *testing.B) {
	h := cpuSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.ev.Add(h.ct1, h.ct2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCPUPmult(b *testing.B) {
	h := cpuSetup(b)
	params := h.ctx.Params
	z := make([]complex128, params.Slots())
	pt, _ := h.enc.Encode(z, h.ct1.Level, params.Scale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ev.MulPlain(h.ct1, pt, params.Scale)
	}
}

func BenchmarkCPUCmult(b *testing.B) {
	h := cpuSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.ev.MulRelin(h.ct1, h.ct2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCPURotation(b *testing.B) {
	h := cpuSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.ev.Rotate(h.ct1, 1); err != nil {
			b.Fatal(err)
		}
	}
}

var tfheCPU *tfhe.Scheme

func BenchmarkCPUGateBootstrap(b *testing.B) {
	if tfheCPU == nil {
		s, err := tfhe.NewScheme(tfhe.FastTestParams(), 9)
		if err != nil {
			b.Fatal(err)
		}
		tfheCPU = s
	}
	x := tfheCPU.EncryptBool(true)
	y := tfheCPU.EncryptBool(false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tfheCPU.NAND(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCPUKeyswitchClass measures the hybrid key-switch core alone.
func BenchmarkCPUKeyswitchClass(b *testing.B) {
	h := cpuSetup(b)
	level := h.ct1.Level
	c := h.ctx.RQ.Clone(level, h.ct1.A)
	kg := ckks.NewKeyGenerator(h.ctx, 4)
	sk2 := kg.GenSecretKey()
	swk := kg.GenSwitchingKey(sk2.Q, sk2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ksB, ksA := h.ev.KeySwitchFused(level, c, swk)
		h.ctx.RQ.Release(ksB)
		h.ctx.RQ.Release(ksA)
	}
}

// Sanity: every workload graph simulates without error under -bench.
func BenchmarkModelAllWorkloads(b *testing.B) {
	graphs := []*trace.Graph{
		workload.Pmult(workload.PaperShape()),
		workload.Cmult(workload.PaperShape()),
		workload.Bootstrap(workload.AppShape(), workload.DefaultBootstrapConfig()),
		workload.PBSBatch(workload.PBSSetI(), 128),
	}
	cfg := arch.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range graphs {
			if _, err := sim.Simulate(cfg, g); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Live CPU baselines for the exact arithmetic schemes and the bridge.

var bgvCPU *struct {
	ctx *bgv.Context
	enc *bgv.Encoder
	ev  *bgv.Evaluator
	ct1 *bgv.Ciphertext
	bf1 *bgv.BFVCiphertext
	dt  *bgv.Decryptor
}

func bgvSetup(b *testing.B) {
	b.Helper()
	if bgvCPU != nil {
		return
	}
	ctx, err := bgv.NewContext(bgv.TestParams())
	if err != nil {
		b.Fatal(err)
	}
	kg := bgv.NewKeyGenerator(ctx, 5)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinKey(sk)
	enc := bgv.NewEncoder(ctx)
	et := bgv.NewEncryptor(ctx, pk, 6)
	slots := make([]uint64, ctx.Params.N())
	for i := range slots {
		slots[i] = uint64(i) % ctx.Params.T
	}
	level := ctx.Params.MaxLevel()
	pt, _ := enc.Encode(slots, level)
	ptB, _ := enc.EncodeBFV(slots, level)
	bgvCPU = &struct {
		ctx *bgv.Context
		enc *bgv.Encoder
		ev  *bgv.Evaluator
		ct1 *bgv.Ciphertext
		bf1 *bgv.BFVCiphertext
		dt  *bgv.Decryptor
	}{
		ctx: ctx,
		enc: enc,
		ev:  bgv.NewEvaluator(ctx, rlk),
		ct1: et.Encrypt(pt, level),
		bf1: et.EncryptBFV(ptB, level),
		dt:  bgv.NewDecryptor(ctx, sk),
	}
}

func BenchmarkCPUBGVMul(b *testing.B) {
	bgvSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bgvCPU.ev.MulRelin(bgvCPU.ct1, bgvCPU.ct1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCPUBFVMul(b *testing.B) {
	bgvSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bgvCPU.ev.MulBFV(bgvCPU.bf1, bgvCPU.bf1); err != nil {
			b.Fatal(err)
		}
	}
}
