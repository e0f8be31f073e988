package bridge

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"alchemist/internal/ckks"
	"alchemist/internal/prng"
	"alchemist/internal/tfhe"
)

type harness struct {
	ctx *ckks.Context
	enc *ckks.Encoder
	kg  *ckks.KeyGenerator
	sk  *ckks.SecretKey
	et  *ckks.Encryptor
	dt  *ckks.Decryptor
	tf  *tfhe.Scheme
	br  *Bridge
}

var cached *harness

func setup(t testing.TB) *harness {
	t.Helper()
	if cached != nil {
		return cached
	}
	// CKKS: N=2^9, scale 2^42 over 45-bit q0 → bridged phases = value/8.
	params, err := ckks.GenParams(9, 3, 2, 2, 45, 42, 45)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := ckks.NewContext(params)
	if err != nil {
		t.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(ctx, 71)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	tf, err := tfhe.NewScheme(tfhe.FastTestParams(), 72)
	if err != nil {
		t.Fatal(err)
	}
	br, err := New(ctx, kg, sk, tf)
	if err != nil {
		t.Fatal(err)
	}
	cached = &harness{
		ctx: ctx,
		enc: ckks.NewEncoder(ctx),
		kg:  kg,
		sk:  sk,
		et:  ckks.NewEncryptor(ctx, pk, 73),
		dt:  ckks.NewDecryptor(ctx, sk),
		tf:  tf,
		br:  br,
	}
	return cached
}

func (h *harness) encrypt(t testing.TB, z []complex128) *ckks.Ciphertext {
	t.Helper()
	level := h.ctx.Params.MaxLevel()
	pt, err := h.enc.Encode(z, level, h.ctx.Params.Scale)
	if err != nil {
		t.Fatal(err)
	}
	return h.et.Encrypt(pt, level, h.ctx.Params.Scale)
}

func TestBridgePhasesCarrySlotValues(t *testing.T) {
	h := setup(t)
	n := h.ctx.Params.Slots()
	rng := rand.New(rand.NewSource(74))
	z := make([]complex128, n)
	for i := range z {
		z[i] = complex(rng.Float64()*2-1, 0)
	}
	ct := h.encrypt(t, z)
	count := 16
	lwes, err := h.br.ToLWE(ct, count)
	if err != nil {
		t.Fatal(err)
	}
	scale := h.br.TorusScale(ct)
	if scale < 0.05 || scale > 0.3 {
		t.Fatalf("torus scale %v outside the designed ≈1/8 band", scale)
	}
	for j := 0; j < count; j++ {
		phase := tfhe.DoubleFromTorus(h.tf.LweKey.Phase(lwes[j]))
		want := real(z[j]) * scale
		if d := math.Abs(phase - want); d > 0.01 {
			t.Fatalf("slot %d: bridged phase %v, want %v (slot %v)", j, phase, want, real(z[j]))
		}
	}
}

func TestCrossSchemeSign(t *testing.T) {
	// The paper's motivating hybrid: compute under CKKS, compare under TFHE.
	h := setup(t)
	n := h.ctx.Params.Slots()
	z := make([]complex128, n)
	rng := rand.New(rand.NewSource(75))
	for i := range z {
		v := rng.Float64()*1.6 - 0.8
		if v > -0.05 && v < 0.05 {
			v = 0.2 // keep a sign margin: near-zero values are ambiguous under noise
		}
		z[i] = complex(v, 0)
	}
	ct := h.encrypt(t, z)
	count := 12
	lwes, err := h.br.ToLWE(ct, count)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < count; j++ {
		signed, err := h.br.Sign(lwes[j])
		if err != nil {
			t.Fatal(err)
		}
		got := h.tf.DecryptBool(signed)
		want := real(z[j]) > 0
		if got != want {
			t.Fatalf("slot %d: sign(%v) = %v", j, real(z[j]), got)
		}
	}
}

func TestCrossSchemeCompare(t *testing.T) {
	h := setup(t)
	n := h.ctx.Params.Slots()
	z := make([]complex128, n)
	pairs := [][2]float64{{0.7, 0.2}, {-0.3, 0.4}, {0.5, -0.5}, {-0.2, -0.6}}
	for i, p := range pairs {
		z[2*i] = complex(p[0], 0)
		z[2*i+1] = complex(p[1], 0)
	}
	ct := h.encrypt(t, z)
	lwes, err := h.br.ToLWE(ct, 2*len(pairs))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pairs {
		gt, err := h.br.Compare(lwes[2*i], lwes[2*i+1])
		if err != nil {
			t.Fatal(err)
		}
		if got, want := h.tf.DecryptBool(gt), p[0] > p[1]; got != want {
			t.Fatalf("pair %d: compare(%v, %v) = %v", i, p[0], p[1], got)
		}
	}
}

func TestBridgeAfterHomomorphicCompute(t *testing.T) {
	// Compute (x² - 0.25) under CKKS, then test its sign under TFHE:
	// positive ⇔ |x| > 0.5.
	h := setup(t)
	n := h.ctx.Params.Slots()
	xs := []float64{0.9, 0.1, -0.8, 0.3, 0.7, -0.2}
	z := make([]complex128, n)
	for i, x := range xs {
		z[i] = complex(x, 0)
	}
	ct := h.encrypt(t, z)

	kgEv := h.kg.GenEvaluationKeySet(h.sk, nil, false)
	ev := ckks.NewEvaluator(h.ctx, kgEv)
	sq, err := ev.MulRelin(ct, ct)
	if err != nil {
		t.Fatal(err)
	}
	sq, err = ev.Rescale(sq)
	if err != nil {
		t.Fatal(err)
	}
	quarter := make([]complex128, n)
	for i := range quarter {
		quarter[i] = complex(-0.25, 0)
	}
	pt, err := h.enc.Encode(quarter, sq.Level, sq.Scale)
	if err != nil {
		t.Fatal(err)
	}
	shifted := ev.AddPlain(sq, pt)

	lwes, err := h.br.ToLWE(shifted, len(xs))
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		signed, err := h.br.Sign(lwes[i])
		if err != nil {
			t.Fatal(err)
		}
		if got, want := h.tf.DecryptBool(signed), x*x > 0.25; got != want {
			t.Fatalf("x=%v: sign(x²-0.25) = %v, want %v", x, got, want)
		}
	}
}

func TestToLWEValidation(t *testing.T) {
	h := setup(t)
	z := make([]complex128, h.ctx.Params.Slots())
	ct := h.encrypt(t, z)
	if _, err := h.br.ToLWE(ct, h.ctx.Params.Slots()+1); err == nil {
		t.Fatal("expected slot-count error")
	}
}

// TestSignPipelinePhaseMargin guards the decision margin of the
// xscheme-sign benchmark pipeline at its parameters: x² − 0.25 computed
// under CKKS (square, rescale, add the plaintext −0.25) and bridged to TFHE,
// on inputs with |x| ∉ [0.4, 0.6] drawn as the benchmark draws them. There
// |x² − 0.25| ≥ 0.09, so every phase has a margin of 0.09·TorusScale to the
// sign boundary; the bridged phase error must stay under half of it, or the
// sign bootstraps downstream lose their headroom.
func TestSignPipelinePhaseMargin(t *testing.T) {
	h := setup(t)
	n := h.ctx.Params.Slots()
	ev := ckks.NewEvaluator(h.ctx, h.kg.GenEvaluationKeySet(h.sk, nil, false))
	rng := rand.New(rand.NewSource(77))
	const rounds = 10
	worst, limit := 0.0, math.Inf(1)
	for r := 0; r < rounds; r++ {
		z := make([]complex128, n)
		quarter := make([]complex128, n)
		for i := range z {
			mag := 0.8 * rng.Float64()
			if mag >= 0.4 {
				mag += 0.2
			}
			if rng.Intn(2) == 0 {
				mag = -mag
			}
			z[i], quarter[i] = complex(mag, 0), -0.25
		}
		ct := h.encrypt(t, z)
		sq, err := ev.MulRelin(ct, ct)
		if err != nil {
			t.Fatal(err)
		}
		sq, err = ev.Rescale(sq)
		if err != nil {
			t.Fatal(err)
		}
		pt, err := h.enc.Encode(quarter, sq.Level, sq.Scale)
		if err != nil {
			t.Fatal(err)
		}
		fx := ev.AddPlain(sq, pt)
		scale := h.br.TorusScale(fx)
		limit = min(limit, 0.09*scale/2)
		lwes, err := h.br.ToLWE(fx, n)
		if err != nil {
			t.Fatal(err)
		}
		for j, l := range lwes {
			x := real(z[j])
			phase := tfhe.DoubleFromTorus(h.tf.LweKey.Phase(l))
			worst = max(worst, math.Abs(phase-(x*x-0.25)*scale))
		}
	}
	t.Logf("%d values: max phase error %.5f, limit %.5f", rounds*n, worst, limit)
	if worst >= limit {
		t.Fatalf("max bridged phase error %.5f reaches half the minimum sign margin %.5f", worst, limit)
	}
}

// TestSignAtMinimumMargin runs 6000 signs on fresh level-0 samples whose
// phases sit at ±0.09·TorusScale: the smallest |x² − 0.25| the xscheme-sign
// benchmark draws, so the smallest margin a bridged sign must resolve.
// Without the sign gain about one in a thousand of these flips. The samples
// are drawn from one seed; the bootstraps run on up to four goroutines.
func TestSignAtMinimumMargin(t *testing.T) {
	h := setup(t)
	margin := 0.09 * h.ctx.Params.Scale / float64(h.ctx.Params.Q[0])
	rng := prng.New(78)
	const signs = 6000
	samples := make([]*tfhe.LweSample, signs)
	for i := range samples {
		phase := margin
		if i%2 == 1 {
			phase = -phase
		}
		samples[i] = h.tf.LweKey.Encrypt(tfhe.TorusFromDouble(phase), h.tf.Params.LweSigma, rng)
	}
	workers := min(runtime.GOMAXPROCS(0), 4)
	var failed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < signs; i += workers {
				out, err := h.br.Sign(samples[i])
				if err != nil {
					t.Error(err)
					return
				}
				if h.tf.DecryptBool(out) != (i%2 == 0) {
					failed.Add(1)
				}
				h.br.boot.Recycle(out)
			}
		}(w)
	}
	wg.Wait()
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d of %d signs at phase ±%.5f came out wrong", n, signs, margin)
	}
}

// TestNewIsDeterministicPerSeed builds two bridges from generators at one
// seed and converts one ciphertext through both: the SlotToCoeff rotation
// keys must come out byte-identical, so the LWE samples must too. The
// rotations reach key generation from a map, so this fails whenever the key
// generator draws them in the order it is handed them.
func TestNewIsDeterministicPerSeed(t *testing.T) {
	h := setup(t)
	ct := h.encrypt(t, make([]complex128, h.ctx.Params.Slots()))
	var outs [2][]*tfhe.LweSample
	for i := range outs {
		kg := ckks.NewKeyGenerator(h.ctx, 81)
		sk := kg.GenSecretKey()
		tf, err := tfhe.NewScheme(tfhe.FastTestParams(), 82)
		if err != nil {
			t.Fatal(err)
		}
		br, err := New(h.ctx, kg, sk, tf)
		if err != nil {
			t.Fatal(err)
		}
		if outs[i], err = br.ToLWE(ct, 8); err != nil {
			t.Fatal(err)
		}
	}
	for j := range outs[0] {
		a, b := outs[0][j], outs[1][j]
		if a.B != b.B || !slices.Equal(a.A, b.A) {
			t.Fatalf("sample %d differs between two bridges built at one seed", j)
		}
	}
}
