package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"strconv"

	"alchemist/internal/bench"
	"alchemist/internal/bgv"
	"alchemist/internal/bridge"
	"alchemist/internal/ckks"
	"alchemist/internal/engine"
	"alchemist/internal/prng"
	"alchemist/internal/tfhe"
)

// workload is one application shape. setup builds a fresh instance
// (parameters, context, keys, precomputation); the instance's request runs
// one end-to-end job on inputs drawn from the seed.
type workload struct {
	name  string
	setup func(seed int64, tr *tracer) (*instance, error)
}

// instance is a set-up workload ready to serve requests.
type instance struct {
	request func() (outcome, error)
	close   func()
	gates   int           // bootstrapped TFHE gates per request
	engine  *engine.Stats // engine counters summed over requests, nil without an engine
}

// workloads lists the benchmark's workloads; BENCHMARK.json and README.md
// say why each was chosen.
var workloads = []workload{
	{"lola-mnist", setupLoLa},
	{"helr-wide", setupHELR},
	{"tfhe-add4", setupAdder},
	{"xscheme-sign", setupSign},
	{"bgv-tally", setupTally},
	{"model-sweep", setupSweep},
}

// ckksKit is one CKKS key set with the objects a client and a server hold.
type ckksKit struct {
	ctx *ckks.Context
	kg  *ckks.KeyGenerator
	sk  *ckks.SecretKey
	enc *ckks.Encoder
	et  *ckks.Encryptor
	dec *ckks.Decryptor
	ev  *ckks.Evaluator
}

func newCKKSKit(params ckks.Parameters, rotations []int, seed int64) (*ckksKit, error) {
	ctx, err := ckks.NewContext(params)
	if err != nil {
		return nil, err
	}
	kg := ckks.NewKeyGenerator(ctx, seed)
	sk := kg.GenSecretKey()
	return &ckksKit{
		ctx: ctx,
		kg:  kg,
		sk:  sk,
		enc: ckks.NewEncoder(ctx),
		et:  ckks.NewEncryptor(ctx, kg.GenPublicKey(sk), seed+1),
		dec: ckks.NewDecryptor(ctx, sk),
		ev:  ckks.NewEvaluator(ctx, kg.GenEvaluationKeySet(sk, rotations, false)),
	}, nil
}

// encrypt encodes vals into the leading slots and encrypts them at the top
// level.
func (k *ckksKit) encrypt(tr *tracer, vals []float64) (*ckks.Ciphertext, error) {
	z := make([]complex128, len(vals))
	for i, v := range vals {
		z[i] = complex(v, 0)
	}
	level, scale := k.ctx.Params.MaxLevel(), k.ctx.Params.Scale
	sp := tr.start("ckks.encode")
	pt, err := k.enc.Encode(z, level, scale)
	tr.stop(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.start("ckks.encrypt")
	ct := k.et.Encrypt(pt, level, scale)
	tr.stop(sp)
	return ct, nil
}

// decrypt returns the real parts of the first n slots of ct.
func (k *ckksKit) decrypt(tr *tracer, ct *ckks.Ciphertext, n int) []float64 {
	sp := tr.start("ckks.decrypt")
	pt := k.dec.DecryptPoly(ct)
	tr.stop(sp)
	sp = tr.start("ckks.decode")
	z := k.enc.Decode(pt, ct.Level, ct.Scale)
	tr.stop(sp)
	out := make([]float64, n)
	for i := range out {
		out[i] = real(z[i])
	}
	return out
}

func uniform(rng *prng.Rand, n int, lo, hi float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*rng.Float64()
	}
	return out
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

func matVec(m [][]float64, x []float64) []float64 {
	out := make([]float64, len(m))
	for i, row := range m {
		out[i] = dot(row, x)
	}
	return out
}

// lola-mnist: LoLa-style inference, dense 16→8, square activation, dense
// 8→4, on CKKS N=2^11 with the library's default single ring worker.
//
// The tolerance, 2^-17.6, is 0.9 bit below the worst slot error seen in
// 8000 requests over 230 seeds (2^-18.5); a request's precision depends on
// its seed and inputs, from 18.5 to 27.7 bits.
const (
	lolaIn, lolaHidden, lolaOut = 16, 8, 4
	lolaTol                     = 5e-6
)

func setupLoLa(seed int64, tr *tracer) (*instance, error) {
	params := ckks.TestParams()
	rng := prng.New(seed)
	w1 := make([][]float64, lolaHidden)
	for i := range w1 {
		w1[i] = uniform(rng, lolaIn, -1, 1)
	}
	w2 := make([][]float64, lolaOut)
	for i := range w2 {
		w2[i] = uniform(rng, lolaHidden, -1, 1)
	}
	lt1, err := ckks.NewLinearTransformFromMatrix(complexMatrix(w1), params.Slots())
	if err != nil {
		return nil, err
	}
	lt2, err := ckks.NewLinearTransformFromMatrix(complexMatrix(w2), params.Slots())
	if err != nil {
		return nil, err
	}
	k, err := newCKKSKit(params, append(lt1.Rotations(), lt2.Rotations()...), seed)
	if err != nil {
		return nil, err
	}
	request := func() (outcome, error) {
		x := uniform(rng, lolaIn, 0, 1)
		ct, err := k.encrypt(tr, x)
		if err != nil {
			return outcome{}, err
		}
		sp := tr.start("ckks.linear_transform")
		h, err := k.ev.EvalLinearTransform(ct, lt1, k.enc)
		tr.stop(sp)
		if err != nil {
			return outcome{}, err
		}
		sp = tr.start("ckks.mulrelin")
		h, err = k.ev.MulRelin(h, h)
		tr.stop(sp)
		if err != nil {
			return outcome{}, err
		}
		sp = tr.start("ckks.rescale")
		h, err = k.ev.Rescale(h)
		tr.stop(sp)
		if err != nil {
			return outcome{}, err
		}
		sp = tr.start("ckks.linear_transform")
		out, err := k.ev.EvalLinearTransform(h, lt2, k.enc)
		tr.stop(sp)
		if err != nil {
			return outcome{}, err
		}
		hidden := matVec(w1, x)
		for i, v := range hidden {
			hidden[i] = v * v
		}
		return outcome{got: k.decrypt(tr, out, lolaOut), want: matVec(w2, hidden), tol: lolaTol}, nil
	}
	return &instance{request: request, close: k.ctx.Close}, nil
}

func complexMatrix(m [][]float64) [][]complex128 {
	out := make([][]complex128, len(m))
	for i, row := range m {
		out[i] = make([]complex128, len(row))
		for j, v := range row {
			out[i][j] = complex(v, 0)
		}
	}
	return out
}

// helr-wide: one HELR-style gradient step on CKKS N=2^13, L=11: the batch
// times the encrypted weights, then a rotate-and-add fold over the batch,
// with two ring workers.
//
// A seed's precision moves little between requests but ranges from 17.4 to
// 23.9 bits across 230 seeds; the tolerance, 2^-16.6, is 0.8 bit below the
// worst of them.
const (
	helrFeatures, helrBatch = 8, 16
	helrWorkers             = 2
	helrTol                 = 1e-5
)

func setupHELR(seed int64, tr *tracer) (*instance, error) {
	params, err := ckks.GenParams(13, 11, 3, 4, 55, 40, 55)
	if err != nil {
		return nil, err
	}
	var rots []int
	for step := helrBatch / 2; step >= 1; step >>= 1 {
		rots = append(rots, step*helrFeatures)
	}
	k, err := newCKKSKit(params, rots, seed)
	if err != nil {
		return nil, err
	}
	k.ctx.SetWorkers(helrWorkers)
	rng := prng.New(seed)
	truth := uniform(rng, helrFeatures, -1, 1)
	request := func() (outcome, error) {
		// Slot s·F+j holds y_s·x_s[j]/F beside weight j, the HELR packing.
		n := helrBatch * helrFeatures
		z, w := make([]float64, n), make([]float64, n)
		weights := uniform(rng, helrFeatures, -1, 1)
		want := make([]float64, helrFeatures)
		for s := 0; s < helrBatch; s++ {
			x := uniform(rng, helrFeatures, -1, 1)
			y := 1.0
			if dot(truth, x) < 0 {
				y = -1
			}
			for j := range x {
				z[s*helrFeatures+j] = y * x[j] / helrFeatures
				w[s*helrFeatures+j] = weights[j]
				want[j] += z[s*helrFeatures+j] * weights[j]
			}
		}
		cz, err := k.encrypt(tr, z)
		if err != nil {
			return outcome{}, err
		}
		cw, err := k.encrypt(tr, w)
		if err != nil {
			return outcome{}, err
		}
		sp := tr.start("ckks.mulrelin")
		acc, err := k.ev.MulRelin(cz, cw)
		tr.stop(sp)
		if err != nil {
			return outcome{}, err
		}
		sp = tr.start("ckks.rescale")
		acc, err = k.ev.Rescale(acc)
		tr.stop(sp)
		if err != nil {
			return outcome{}, err
		}
		for _, r := range rots {
			sp = tr.start("ckks.rotate")
			rot, err := k.ev.Rotate(acc, r)
			tr.stop(sp)
			if err != nil {
				return outcome{}, err
			}
			sp = tr.start("ckks.add")
			acc, err = k.ev.Add(acc, rot)
			tr.stop(sp)
			if err != nil {
				return outcome{}, err
			}
		}
		return outcome{got: k.decrypt(tr, acc, helrFeatures), want: want, tol: helrTol}, nil
	}
	return &instance{request: request, close: k.ctx.Close}, nil
}

// tfhe-add4: a 4-bit ripple-carry adder of bootstrapped gates on TFHE Set I,
// one gate at a time. Each gate streams the whole bootstrapping key, so two
// concurrent gates share the memory bandwidth; with two circuit workers on a
// 2-vCPU host the p50 of ten runs spread from 154 to 242 ms.
const (
	adderBits    = 4
	adderWorkers = 1
)

func setupAdder(seed int64, tr *tracer) (*instance, error) {
	s, err := tfhe.NewScheme(tfhe.DefaultParams(), seed)
	if err != nil {
		return nil, err
	}
	adder := tfhe.AdderCircuit(adderBits)
	gates, _ := adder.Gates()
	rng := prng.New(seed)
	request := func() (outcome, error) {
		a, b := rng.Intn(1<<adderBits), rng.Intn(1<<adderBits)
		var in []*tfhe.LweSample
		for _, v := range []int{a, b} {
			for i := 0; i < adderBits; i++ {
				sp := tr.start("tfhe.encrypt")
				in = append(in, s.EncryptBool(v>>i&1 == 1))
				tr.stop(sp)
			}
		}
		sp := tr.start("tfhe.circuit")
		outs, err := adder.Evaluate(s, in, adderWorkers)
		tr.stop(sp)
		if err != nil {
			return outcome{}, err
		}
		sum := 0
		for i, c := range outs {
			sp := tr.start("tfhe.decrypt")
			bit := s.DecryptBool(c)
			tr.stop(sp)
			if bit {
				sum |= 1 << i
			}
		}
		return outcome{got: []float64{float64(sum)}, want: []float64{float64(a + b)}}, nil
	}
	return &instance{request: request, close: func() {}, gates: gates}, nil
}

// xscheme-sign: x²−0.25 under CKKS N=2^9, switched into TFHE by the bridge,
// then one sign bootstrap per value. Inputs keep |x| out of [0.4, 0.6] so
// every verdict has a margin over the bridge's noise.
const signValues = 8

func setupSign(seed int64, tr *tracer) (*instance, error) {
	params, err := ckks.GenParams(9, 3, 2, 2, 45, 42, 45)
	if err != nil {
		return nil, err
	}
	k, err := newCKKSKit(params, nil, seed)
	if err != nil {
		return nil, err
	}
	tf, err := tfhe.NewScheme(tfhe.FastTestParams(), seed+2)
	if err != nil {
		return nil, err
	}
	br, err := bridge.New(k.ctx, k.kg, k.sk, tf)
	if err != nil {
		return nil, err
	}
	rng := prng.New(seed)
	request := func() (outcome, error) {
		xs := make([]float64, signValues)
		quarter := make([]complex128, signValues)
		want := make([]float64, signValues)
		for i := range xs {
			mag := 0.8 * rng.Float64()
			if mag >= 0.4 {
				mag += 0.2
			}
			if rng.Intn(2) == 0 {
				mag = -mag
			}
			xs[i], quarter[i] = mag, -0.25
			if mag*mag > 0.25 {
				want[i] = 1
			}
		}
		ct, err := k.encrypt(tr, xs)
		if err != nil {
			return outcome{}, err
		}
		sp := tr.start("ckks.mulrelin")
		sq, err := k.ev.MulRelin(ct, ct)
		tr.stop(sp)
		if err != nil {
			return outcome{}, err
		}
		sp = tr.start("ckks.rescale")
		sq, err = k.ev.Rescale(sq)
		tr.stop(sp)
		if err != nil {
			return outcome{}, err
		}
		sp = tr.start("ckks.encode")
		c, err := k.enc.Encode(quarter, sq.Level, sq.Scale)
		tr.stop(sp)
		if err != nil {
			return outcome{}, err
		}
		sp = tr.start("ckks.add_plain")
		fx := k.ev.AddPlain(sq, c)
		tr.stop(sp)
		sp = tr.start("bridge.to_lwe")
		lwes, err := br.ToLWE(fx, signValues)
		tr.stop(sp)
		if err != nil {
			return outcome{}, err
		}
		got := make([]float64, signValues)
		for i, l := range lwes {
			sp := tr.start("bridge.sign")
			sign, err := br.Sign(l)
			tr.stop(sp)
			if err != nil {
				return outcome{}, err
			}
			sp = tr.start("tfhe.decrypt")
			if tf.DecryptBool(sign) {
				got[i] = 1
			}
			tr.stop(sp)
		}
		return outcome{got: got, want: want}, nil
	}
	return &instance{request: request, close: k.ctx.Close, gates: signValues}, nil
}

// bgv-tally: 16 encrypted one-hot ballots summed, weighted by a plaintext
// and squared under BGV N=2^12, t=65537, exact mod t.
const (
	tallyBallots, tallyCandidates = 16, 8
	tallyMaxWeight                = 3
)

func setupTally(seed int64, tr *tracer) (*instance, error) {
	params, err := bgv.GenParams(12, 4, 5, 2, 45, 46, 65537)
	if err != nil {
		return nil, err
	}
	ctx, err := bgv.NewContext(params)
	if err != nil {
		return nil, err
	}
	kg := bgv.NewKeyGenerator(ctx, seed)
	sk := kg.GenSecretKey()
	enc := bgv.NewEncoder(ctx)
	et := bgv.NewEncryptor(ctx, kg.GenPublicKey(sk), seed+1)
	dec := bgv.NewDecryptor(ctx, sk)
	ev := bgv.NewEvaluator(ctx, kg.GenRelinKey(sk))
	level := params.MaxLevel()
	rng := prng.New(seed)
	request := func() (outcome, error) {
		counts := make([]uint64, tallyCandidates)
		var tally *bgv.Ciphertext
		for v := 0; v < tallyBallots; v++ {
			choice := rng.Intn(tallyCandidates)
			counts[choice]++
			ballot := make([]uint64, tallyCandidates)
			ballot[choice] = 1
			sp := tr.start("bgv.encode")
			pt, err := enc.Encode(ballot, level)
			tr.stop(sp)
			if err != nil {
				return outcome{}, err
			}
			sp = tr.start("bgv.encrypt")
			ct := et.Encrypt(pt, level)
			tr.stop(sp)
			if tally == nil {
				tally = ct
				continue
			}
			sp = tr.start("bgv.add")
			tally = ev.Add(tally, ct)
			tr.stop(sp)
		}
		weights := make([]uint64, tallyCandidates)
		want := make([]float64, tallyCandidates)
		for c := range weights {
			weights[c] = uint64(1 + rng.Intn(tallyMaxWeight))
			score := weights[c] * counts[c]
			want[c] = float64(score * score % params.T)
		}
		sp := tr.start("bgv.encode")
		wpt, err := enc.Encode(weights, tally.Level)
		tr.stop(sp)
		if err != nil {
			return outcome{}, err
		}
		sp = tr.start("bgv.mul_plain")
		weighted := ev.MulPlain(tally, wpt)
		tr.stop(sp)
		sp = tr.start("bgv.mulrelin")
		score, err := ev.MulRelin(weighted, weighted)
		tr.stop(sp)
		if err != nil {
			return outcome{}, err
		}
		sp = tr.start("bgv.decrypt")
		pt := dec.DecryptPoly(score)
		tr.stop(sp)
		sp = tr.start("bgv.decode")
		slots := enc.Decode(pt, score.Level)
		tr.stop(sp)
		got := make([]float64, tallyCandidates)
		for c := range got {
			got[c] = float64(slots[c])
		}
		return outcome{got: got, want: want}, nil
	}
	return &instance{request: request, close: ctx.Close}, nil
}

// model-sweep: every paper report regenerated cold on a fresh engine. It
// draws no inputs, so it ignores the seed.
const (
	sweepWorkers = 2
	sweepReports = 22
	// Table 7's Pmult and Hadd rows are exact by the Meta-OP timing contract.
	table7Pmult, table7Hadd = 946970, 710227
)

func setupSweep(_ int64, tr *tracer) (*instance, error) {
	inst := &instance{close: func() {}, engine: &engine.Stats{}}
	var ref uint64
	inst.request = func() (outcome, error) {
		eng := engine.New(engine.WithWorkers(sweepWorkers))
		sp := tr.start("bench.all")
		reports := bench.NewCtx(context.Background(), eng).All()
		tr.stop(sp)
		st := eng.Stats()
		eng.Close()
		addStats(inst.engine, st)

		h := fnv.New64a()
		for _, r := range reports {
			_, _ = io.WriteString(h, r.String()) // hash.Hash writes never fail
		}
		sum := h.Sum64()
		if ref == 0 {
			ref = sum // every later sweep must reproduce the first one
		}
		pmult, hadd := table7Cell(reports, "Pmult"), table7Cell(reports, "Hadd")
		return outcome{
			got:  []float64{float64(len(reports)), pmult, hadd, float64(sum >> 32), float64(sum & math.MaxUint32)},
			want: []float64{sweepReports, table7Pmult, table7Hadd, float64(ref >> 32), float64(ref & math.MaxUint32)},
		}, nil
	}
	return inst, nil
}

func addStats(total *engine.Stats, s engine.Stats) {
	total.Submitted += s.Submitted
	total.Completed += s.Completed
	total.Failed += s.Failed
	total.CacheHits += s.CacheHits
	total.CacheMisses += s.CacheMisses
	total.TotalWall += s.TotalWall
}

// table7Cell returns the Alchemist(model) throughput of op in Table 7, or
// NaN when the row is missing or unreadable.
func table7Cell(reports []*bench.Report, op string) float64 {
	for _, r := range reports {
		if r.ID != "table7" {
			continue
		}
		col := -1
		for i, h := range r.Headers {
			if h == "Alchemist(model)" {
				col = i
			}
		}
		for _, row := range r.Rows {
			if col >= 0 && col < len(row) && row[0] == op {
				if v, err := strconv.ParseFloat(row[col], 64); err == nil {
					return v
				}
			}
		}
	}
	return math.NaN()
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
