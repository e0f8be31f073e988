package alchemist

import (
	"context"
	"errors"
	"testing"
	"time"

	"alchemist/internal/trace"
	"alchemist/internal/workload"
)

func TestFacadeSimulate(t *testing.T) {
	cfg := DefaultArch()
	res, err := Simulate(cfg, Workloads().Pmult())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 1056 {
		t.Fatalf("facade Pmult %d cycles, want 1056", res.Cycles)
	}
}

func TestFacadeWorkloads(t *testing.T) {
	w := Workloads()
	app := AppWorkloads()
	graphs := []*Graph{
		w.Pmult(), w.Hadd(), w.Keyswitch(), w.Cmult(), w.Rotation(),
		app.Bootstrap(), app.HELR(), app.LoLaMNIST(false), app.LoLaMNIST(true),
		w.TFHEPBS(1, 128), w.TFHEPBS(2, 64), app.CrossScheme(),
	}
	for _, g := range graphs {
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", g.Name, err)
		}
		if _, err := Simulate(DefaultArch(), g); err != nil {
			t.Errorf("%s: %v", g.Name, err)
		}
	}
}

func TestFacadeBaselines(t *testing.T) {
	bs := Baselines()
	if len(bs) != 7 {
		t.Fatalf("expected 7 baselines, got %d", len(bs))
	}
	boot := AppWorkloads().Bootstrap()
	ran := 0
	for _, b := range bs {
		if !b.Arithmetic {
			continue
		}
		if _, err := SimulateBaseline(b, boot); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
		ran++
	}
	if ran != 5 {
		t.Errorf("expected 5 arithmetic baselines, ran %d", ran)
	}
}

func TestFacadeArea(t *testing.T) {
	b := Area(DefaultArch())
	if b.Total < 181 || b.Total > 181.2 {
		t.Fatalf("area %.3f, want 181.086", b.Total)
	}
}

func TestFacadeReports(t *testing.T) {
	rs := Reports()
	if len(rs) < 12 {
		t.Fatalf("expected at least 12 reports, got %d", len(rs))
	}
}

func TestFacadeLiveCKKS(t *testing.T) {
	c, err := NewCKKS(CKKSTestParams(), []int{1}, 7)
	if err != nil {
		t.Fatal(err)
	}
	z := make([]complex128, c.Context.Params.Slots())
	for i := range z {
		z[i] = complex(float64(i%7)/7, 0)
	}
	level := c.Context.Params.MaxLevel()
	pt, err := c.Encoder.Encode(z, level, c.Context.Params.Scale)
	if err != nil {
		t.Fatal(err)
	}
	ct := c.Encryptor.Encrypt(pt, level, c.Context.Params.Scale)
	sum, err := c.Evaluator.Add(ct, ct)
	if err != nil {
		t.Fatal(err)
	}
	got := c.Encoder.Decode(c.Decryptor.DecryptPoly(sum), sum.Level, sum.Scale)
	for i := range z {
		if d := real(got[i]) - 2*real(z[i]); d > 1e-5 || d < -1e-5 {
			t.Fatalf("facade CKKS add wrong at %d: %v", i, got[i])
		}
	}
}

func TestFacadeLiveBGV(t *testing.T) {
	b, err := NewBGV(BGVTestParams(), 21)
	if err != nil {
		t.Fatal(err)
	}
	params := b.Context.Params
	slots := make([]uint64, params.N())
	for i := range slots {
		slots[i] = uint64(i * 3 % int(params.T))
	}
	level := params.MaxLevel()
	pt, err := b.Encoder.Encode(slots, level)
	if err != nil {
		t.Fatal(err)
	}
	ct := b.Encryptor.Encrypt(pt, level)
	sq, err := b.Evaluator.MulRelin(ct, ct)
	if err != nil {
		t.Fatal(err)
	}
	got := b.Encoder.Decode(b.Decryptor.DecryptPoly(sq), sq.Level)
	for i := range slots {
		want := slots[i] * slots[i] % params.T
		if got[i] != want {
			t.Fatalf("facade BGV square wrong at %d: %d != %d", i, got[i], want)
		}
	}
}

func TestFacadeLiveTFHE(t *testing.T) {
	s, err := NewTFHE(TFHEFastParams(), 11)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.NAND(s.EncryptBool(true), s.EncryptBool(true))
	if err != nil {
		t.Fatal(err)
	}
	if s.DecryptBool(out) {
		t.Fatal("NAND(1,1) should be false")
	}
}

func TestFacadeLiveBFV(t *testing.T) {
	// BFV shares the BGV bundle (same context, keys and evaluator).
	b, err := NewBGV(BGVTestParams(), 22)
	if err != nil {
		t.Fatal(err)
	}
	params := b.Context.Params
	slots := make([]uint64, params.N())
	for i := range slots {
		slots[i] = uint64(i*7+3) % params.T
	}
	level := params.MaxLevel()
	pt, err := b.Encoder.EncodeBFV(slots, level)
	if err != nil {
		t.Fatal(err)
	}
	ct := b.Encryptor.EncryptBFV(pt, level)
	sq, err := b.Evaluator.MulBFV(ct, ct)
	if err != nil {
		t.Fatal(err)
	}
	got := b.Decryptor.DecryptBFV(b.Encoder, sq)
	for i := range slots {
		if want := slots[i] * slots[i] % params.T; got[i] != want {
			t.Fatalf("facade BFV square wrong at %d: %d != %d", i, got[i], want)
		}
	}
}

// TestLiveAndModeledPipelinesCorrespond runs the same computation through
// both stacks: live CKKS (correctness ground truth) and the program
// compiler + accelerator model (performance), asserting the op-graph's
// keyswitch count matches the operations actually performed.
func TestLiveAndModeledPipelinesCorrespond(t *testing.T) {
	// Live: y = (x·x) rotated by 1, plus x.
	fhe, err := NewCKKS(CKKSTestParams(), []int{1}, 99)
	if err != nil {
		t.Fatal(err)
	}
	params := fhe.Context.Params
	z := make([]complex128, params.Slots())
	for i := range z {
		z[i] = complex(float64(i%10)/10, 0)
	}
	level := params.MaxLevel()
	pt, _ := fhe.Encoder.Encode(z, level, params.Scale)
	ct := fhe.Encryptor.Encrypt(pt, level, params.Scale)
	sq, err := fhe.Evaluator.MulRelin(ct, ct)
	if err != nil {
		t.Fatal(err)
	}
	sq, err = fhe.Evaluator.Rescale(sq)
	if err != nil {
		t.Fatal(err)
	}
	rot, err := fhe.Evaluator.Rotate(sq, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := fhe.Encoder.Decode(fhe.Decryptor.DecryptPoly(rot), rot.Level, rot.Scale)
	n := params.Slots()
	for i := 0; i < n; i++ {
		want := z[(i+1)%n] * z[(i+1)%n]
		d := real(got[i]) - real(want)
		if d > 1e-3 || d < -1e-3 {
			t.Fatalf("live pipeline wrong at %d: %v want %v", i, got[i], want)
		}
	}

	// Modeled: the same computation as a compiled program. One Mul + one
	// Rotate = exactly two keyswitches (two evk streams).
	p := workload.NewProgram("correspond", workload.AppShape())
	x := p.Input("x")
	sqH := p.Mul(x, x)
	p.Rotate(sqH, 1)
	g, err := p.Graph()
	if err != nil {
		t.Fatal(err)
	}
	ksCount := 0
	for _, op := range g.Ops {
		if op.Kind == trace.KindDecompPolyMult {
			ksCount++
		}
	}
	if ksCount != 2 {
		t.Fatalf("graph has %d keyswitches, the live pipeline performed 2", ksCount)
	}
	res, err := Simulate(DefaultArch(), g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 || res.StreamBytes <= 0 {
		t.Fatal("modeled pipeline produced no work")
	}
}

func TestFacadeSimulateContext(t *testing.T) {
	cfg := DefaultArch()
	g := Workloads().Pmult()
	res, err := SimulateContext(context.Background(), cfg, g, WithTimeout(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 1056 {
		t.Fatalf("context facade Pmult %d cycles, want 1056", res.Cycles)
	}
	// The legacy shim must agree exactly.
	legacy, err := Simulate(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	if legacy.Cycles != res.Cycles || legacy.Seconds != res.Seconds {
		t.Fatal("Simulate shim diverged from SimulateContext")
	}

	bres, err := SimulateBaselineContext(context.Background(), Baselines()[0], g)
	if err != nil {
		t.Fatal(err)
	}
	if bres.Cycles <= 0 {
		t.Fatal("baseline context facade produced no cycles")
	}
}

func TestFacadeContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SimulateContext(ctx, DefaultArch(), Workloads().Cmult())
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, must still match context.Canceled", err)
	}
}

func TestFacadeSentinelErrors(t *testing.T) {
	bad := DefaultArch()
	bad.Units = 0
	if _, err := SimulateContext(context.Background(), bad, Workloads().Pmult()); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v, want ErrBadConfig", err)
	}
	cyclic := &Graph{Name: "cyclic"}
	cyclic.Ops = append(cyclic.Ops,
		&trace.Op{ID: 0, Kind: trace.KindNTT, N: 64, Channels: 1, Polys: 1, Deps: []int{0}})
	if _, err := Simulate(DefaultArch(), cyclic); !errors.Is(err, ErrGraphCycle) {
		t.Fatalf("err = %v, want ErrGraphCycle", err)
	}
}

func TestFacadeEngineBatch(t *testing.T) {
	cache := NewCache()
	eng := NewEngine(WithWorkers(4), WithCache(cache))
	defer eng.Close()
	w := Workloads()
	jobs := []Job{
		SimJob(DefaultArch(), w.Pmult()),
		SimJob(DefaultArch(), w.Cmult()),
		BaselineJob(Baselines()[1], w.Cmult()),
	}
	results, err := eng.Run(context.Background(), jobs...)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(results), len(jobs))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
	}
	if results[0].Sim.Cycles != 1056 {
		t.Fatalf("batch Pmult %d cycles, want 1056", results[0].Sim.Cycles)
	}
	var st EngineStats = eng.Stats()
	if st.Submitted != 3 || st.Completed != 3 {
		t.Fatalf("stats %+v, want 3 submitted and completed", st)
	}
}

func TestPBSSetEnum(t *testing.T) {
	if PBSSet1.String() != "SetI" || PBSSet2.String() != "SetII" {
		t.Fatalf("PBSSet names: %v %v", PBSSet1, PBSSet2)
	}
	w := Workloads()
	// Untyped constants keep historical call sites working.
	if w.TFHEPBS(1, 8).Name != w.TFHEPBS(PBSSet1, 8).Name {
		t.Fatal("TFHEPBS(1, …) must match TFHEPBS(PBSSet1, …)")
	}
	g2 := w.TFHEPBS(PBSSet2, 8)
	if g2.Name != "tfhe-pbs-SetII-x8" {
		t.Fatalf("SetII graph name %q", g2.Name)
	}
}

// TestReportIDsUnique guards the `alchemist sweep -only` lookup.
func TestReportIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range Reports() {
		if seen[r.ID] {
			t.Fatalf("duplicate report id %q", r.ID)
		}
		seen[r.ID] = true
	}
	if len(seen) < 20 {
		t.Fatalf("expected at least 20 reports, got %d", len(seen))
	}
}
