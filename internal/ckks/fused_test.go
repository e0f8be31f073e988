package ckks

import (
	"sort"
	"sync"
	"testing"

	"alchemist/internal/modmath"
)

// Fused-vs-eager equality: KeySwitchFused must be BIT-identical to the eager
// KeySwitch reference on every input — the lazy accumulation, the dual
// digit-batched conversion and the identity-channel copies all compute the
// same fully reduced residues (satellite: fuzz + property tests across
// random levels, digit counts, and near-2^61 edge moduli).

// edgeParams builds a parameter set over near-2^61 primes (the PR 1
// edge-moduli set): the lazy accumulators' capacity bound is 8 there, so the
// auto-flush paths run for real.
func edgeParams(t testing.TB) Parameters {
	t.Helper()
	const logN = 8
	primes, err := modmath.GenerateNTTPrimes(61, uint64(2)<<logN, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Give P the two largest primes so P ≥ every digit group product.
	sorted := append([]uint64(nil), primes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	params := Parameters{
		LogN:  logN,
		Q:     sorted[:4],
		P:     sorted[4:],
		Scale: 1 << 40,
		Dnum:  2,
		Sigma: 3.2,
	}
	if err := params.Validate(); err != nil {
		t.Fatal(err)
	}
	return params
}

func checkFusedMatchesEager(t *testing.T, ctx *Context, seed int64) {
	t.Helper()
	kg := NewKeyGenerator(ctx, seed)
	sk := kg.GenSecretKey()
	sk2 := NewKeyGenerator(ctx, seed+1).GenSecretKey()
	swk := kg.GenSwitchingKey(sk2.Q, sk)
	ev := NewEvaluator(ctx, &EvaluationKeySet{Rlk: swk})
	for level := 0; level <= ctx.Params.MaxLevel(); level++ {
		c := NewKeyGenerator(ctx, seed+2+int64(level)).uniformPoly(ctx.RQ, level)
		eagerB, eagerA := ev.KeySwitch(level, c, swk)
		fusedB, fusedA := ev.KeySwitchFused(level, c, swk)
		if !ctx.RQ.Equal(level, eagerB, fusedB) || !ctx.RQ.Equal(level, eagerA, fusedA) {
			t.Fatalf("level %d: fused keyswitch differs from eager reference", level)
		}
		ctx.RQ.Release(eagerB)
		ctx.RQ.Release(eagerA)
		ctx.RQ.Release(fusedB)
		ctx.RQ.Release(fusedA)
	}
}

func TestKeySwitchFusedMatchesEager(t *testing.T) {
	ctx, err := NewContext(TestParams())
	if err != nil {
		t.Fatal(err)
	}
	checkFusedMatchesEager(t, ctx, 101)
}

func TestKeySwitchFusedMatchesEagerEdgeModuli(t *testing.T) {
	ctx, err := NewContext(edgeParams(t))
	if err != nil {
		t.Fatal(err)
	}
	checkFusedMatchesEager(t, ctx, 202)
}

// TestKeySwitchFusedMatchesEagerAcrossDnum sweeps the digit count: every
// dnum changes the group structure, the identity-channel windows and the
// number of lazily accumulated terms.
func TestKeySwitchFusedMatchesEagerAcrossDnum(t *testing.T) {
	for _, dnum := range []int{1, 2, 3, 5} {
		// K=4 special primes so P covers even the dnum=1 single-group
		// product (~215 bits).
		params, err := GenParams(9, 4, dnum, 4, 55, 40, 55)
		if err != nil {
			t.Fatalf("dnum=%d: %v", dnum, err)
		}
		ctx, err := NewContext(params)
		if err != nil {
			t.Fatalf("dnum=%d: %v", dnum, err)
		}
		checkFusedMatchesEager(t, ctx, 300+int64(dnum))
	}
}

// fuzzCtxs caches one context per (dnum, edge) configuration: fuzz workers
// run in parallel and context construction dominates otherwise.
var fuzzCtxs sync.Map

func fuzzContext(t testing.TB, dnum int, edge bool) *Context {
	key := dnum
	if edge {
		key = -dnum
	}
	if v, ok := fuzzCtxs.Load(key); ok {
		return v.(*Context)
	}
	var params Parameters
	if edge {
		params = edgeParams(t)
		params.Dnum = dnum
	} else {
		var err error
		params, err = GenParams(7, 3, dnum, 2, 45, 40, 45)
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := params.Validate(); err != nil {
		t.Skipf("dnum=%d edge=%v: %v", dnum, edge, err)
	}
	ctx, err := NewContext(params)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := fuzzCtxs.LoadOrStore(key, ctx)
	return v.(*Context)
}

// FuzzKeySwitchFusedVsEager drives the fused path against the eager
// reference over random inputs, levels and digit counts, on both ordinary
// and near-2^61 edge moduli. Any single bit of divergence fails.
func FuzzKeySwitchFusedVsEager(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(1), false)
	f.Add(int64(7), uint8(2), uint8(3), false)
	f.Add(int64(9), uint8(3), uint8(2), true)
	f.Add(int64(42), uint8(1), uint8(2), true)
	f.Fuzz(func(t *testing.T, seed int64, levelSeed, dnumSeed uint8, edge bool) {
		// Digit counts that keep P ≥ every digit group (Validate's noise
		// requirement): alpha ≤ 2 for these 4-prime chains.
		dnum := 2 + int(dnumSeed)%3
		if edge {
			dnum = 2 // edge set has 4 Q primes and 2 P primes: alpha must be 2 to keep P ≥ D_g
		}
		ctx := fuzzContext(t, dnum, edge)
		level := int(levelSeed) % (ctx.Params.MaxLevel() + 1)
		kg := NewKeyGenerator(ctx, seed)
		sk := kg.GenSecretKey()
		sk2 := NewKeyGenerator(ctx, seed+1).GenSecretKey()
		swk := kg.GenSwitchingKey(sk2.Q, sk)
		ev := NewEvaluator(ctx, nil)
		c := kg.uniformPoly(ctx.RQ, level)
		eagerB, eagerA := ev.KeySwitch(level, c, swk)
		fusedB, fusedA := ev.KeySwitchFused(level, c, swk)
		if !ctx.RQ.Equal(level, eagerB, fusedB) || !ctx.RQ.Equal(level, eagerA, fusedA) {
			t.Fatalf("seed=%d level=%d dnum=%d edge=%v: fused differs from eager", seed, level, dnum, edge)
		}
		ctx.RQ.Release(eagerB)
		ctx.RQ.Release(eagerA)
		ctx.RQ.Release(fusedB)
		ctx.RQ.Release(fusedA)
	})
}

// TestRotateHoistedSharedDecompositionDeterministic: two batches against the
// same caller-held decomposition must produce bit-identical ciphertexts —
// the sharing contract RotateHoistedWith documents.
func TestRotateHoistedSharedDecompositionDeterministic(t *testing.T) {
	h := newHarness(t, []int{1, 2})
	ct := h.encrypt(t, randomSlots(h.ctx.Params.Slots(), 55, 1.0))
	ev := h.ev
	d := ev.DecomposeOnce(ct.Level, ct.A)
	var out1, out2 [2]*Ciphertext
	if err := ev.RotateHoistedWith(ct, d, []int{1, 2}, out1[:]); err != nil {
		t.Fatal(err)
	}
	if err := ev.RotateHoistedWith(ct, d, []int{1, 2}, out2[:]); err != nil {
		t.Fatal(err)
	}
	ev.ReleaseDecomposition(d)
	for i := range out1 {
		if !h.ctx.RQ.Equal(ct.Level, out1[i].B, out2[i].B) || !h.ctx.RQ.Equal(ct.Level, out1[i].A, out2[i].A) {
			t.Fatalf("batch %d: shared-decomposition rotation is not deterministic", i)
		}
	}
}

// TestConcurrentRotateHoistedSharedDecomposition exercises the documented
// concurrency contract: many goroutines rotating against ONE read-only
// decomposition, with the ring worker pool enabled underneath (the engine's
// worker threads do exactly this). Runs under the CI race subset; outputs
// are checked bit-exact against a serial reference.
func TestConcurrentRotateHoistedSharedDecomposition(t *testing.T) {
	steps := []int{1, 2, 5, 9}
	h := newHarness(t, steps)
	ct := h.encrypt(t, randomSlots(h.ctx.Params.Slots(), 56, 1.0))
	ev := h.ev
	h.ctx.RQ.SetWorkers(2)
	h.ctx.RP.SetWorkers(2)
	defer func() {
		h.ctx.RQ.Close()
		h.ctx.RP.Close()
		h.ctx.RQ.SetWorkers(1)
		h.ctx.RP.SetWorkers(1)
	}()

	d := ev.DecomposeOnce(ct.Level, ct.A)
	ref := make([]*Ciphertext, len(steps))
	if err := ev.RotateHoistedWith(ct, d, steps, ref); err != nil {
		t.Fatal(err)
	}

	const workers = 4
	var wg sync.WaitGroup
	errs := make([]error, workers)
	outs := make([][]*Ciphertext, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			outs[w] = make([]*Ciphertext, len(steps))
			errs[w] = ev.RotateHoistedWith(ct, d, steps, outs[w])
		}(w)
	}
	wg.Wait()
	ev.ReleaseDecomposition(d)
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		for i := range steps {
			if !h.ctx.RQ.Equal(ct.Level, ref[i].B, outs[w][i].B) || !h.ctx.RQ.Equal(ct.Level, ref[i].A, outs[w][i].A) {
				t.Fatalf("worker %d step %d: concurrent hoisted rotation differs from serial", w, steps[i])
			}
		}
	}
}
