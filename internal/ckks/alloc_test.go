// The race detector makes sync.Pool drop a random fraction of Puts (to
// shake out pool races), so zero-allocation pins cannot hold under -race.
//go:build !race

package ckks

import (
	"runtime"
	"testing"
)

// Steady-state allocation pins for the evaluator hot paths: with the ring
// arena warm and ciphertext shells recycled, a borrow → compute → Recycle
// cycle must not allocate. This is the contract the live benchmark suite
// (internal/bench) measures and BENCH_PR4.json records.

func allocEvaluator(t *testing.T) (*Context, *Evaluator, *Ciphertext, *Ciphertext) {
	t.Helper()
	ctx, err := NewContext(TestParams())
	if err != nil {
		t.Fatal(err)
	}
	kg := NewKeyGenerator(ctx, 1)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	eks := kg.GenEvaluationKeySet(sk, []int{1}, false)
	enc := NewEncoder(ctx)
	et := NewEncryptor(ctx, pk, 2)
	z := make([]complex128, ctx.Params.Slots())
	for i := range z {
		z[i] = complex(float64(i%5)/5, 0)
	}
	level := ctx.Params.MaxLevel()
	pt, err := enc.Encode(z, level, ctx.Params.Scale)
	if err != nil {
		t.Fatal(err)
	}
	ct1 := et.Encrypt(pt, level, ctx.Params.Scale)
	ct2 := et.Encrypt(pt, level, ctx.Params.Scale)
	return ctx, NewEvaluator(ctx, eks), ct1, ct2
}

func TestRescaleAllocFree(t *testing.T) {
	ctx, ev, ct1, _ := allocEvaluator(t)
	warm, err := ev.Rescale(ct1)
	if err != nil {
		t.Fatal(err)
	}
	ctx.Recycle(warm)
	if n := testing.AllocsPerRun(50, func() {
		out, err := ev.Rescale(ct1)
		if err != nil {
			t.Fatal(err)
		}
		ctx.Recycle(out)
	}); n != 0 {
		t.Errorf("warm Rescale+Recycle allocates %.1f per op, want 0", n)
	}
}

func TestMulRelinAllocFree(t *testing.T) {
	ctx, ev, ct1, ct2 := allocEvaluator(t)
	warm, err := ev.MulRelin(ct1, ct2)
	if err != nil {
		t.Fatal(err)
	}
	ctx.Recycle(warm)
	if n := testing.AllocsPerRun(20, func() {
		out, err := ev.MulRelin(ct1, ct2)
		if err != nil {
			t.Fatal(err)
		}
		ctx.Recycle(out)
	}); n != 0 {
		t.Errorf("warm MulRelin+Recycle allocates %.1f per op, want 0", n)
	}
}

func TestRotateAllocFree(t *testing.T) {
	ctx, ev, ct1, _ := allocEvaluator(t)
	warm, err := ev.Rotate(ct1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx.Recycle(warm)
	if n := testing.AllocsPerRun(20, func() {
		out, err := ev.Rotate(ct1, 1)
		if err != nil {
			t.Fatal(err)
		}
		ctx.Recycle(out)
	}); n != 0 {
		t.Errorf("warm Rotate+Recycle allocates %.1f per op, want 0", n)
	}
}

func TestKeySwitchFusedAllocFree(t *testing.T) {
	ctx, ev, ct1, _ := allocEvaluator(t)
	level := ct1.Level
	b, a := ev.KeySwitchFused(level, ct1.A, ev.eks.Rlk) // warm
	ctx.RQ.Release(b)
	ctx.RQ.Release(a)
	if n := testing.AllocsPerRun(20, func() {
		b, a := ev.KeySwitchFused(level, ct1.A, ev.eks.Rlk)
		ctx.RQ.Release(b)
		ctx.RQ.Release(a)
	}); n != 0 {
		t.Errorf("warm KeySwitchFused allocates %.1f per op, want 0", n)
	}
}

// TestRotateHoistedAllocFree pins the hoisted batch path end to end:
// DecomposeOnce, the key pre-check, the per-step permuted accumulations and
// the ciphertext wrapping all run from pools.
func TestRotateHoistedAllocFree(t *testing.T) {
	ctx, ev, ct1, _ := allocEvaluator(t)
	steps := []int{1}
	var outs [1]*Ciphertext
	if err := ev.RotateHoistedInto(ct1, steps, outs[:]); err != nil { // warm
		t.Fatal(err)
	}
	ctx.Recycle(outs[0])
	if n := testing.AllocsPerRun(20, func() {
		if err := ev.RotateHoistedInto(ct1, steps, outs[:]); err != nil {
			t.Fatal(err)
		}
		ctx.Recycle(outs[0])
	}); n != 0 {
		t.Errorf("warm RotateHoistedInto+Recycle allocates %.1f per op, want 0", n)
	}
}

// TestLinearTransformAllocFree pins a warm double-hoisted transform: the
// plaintexts come from the transform's cache and every polynomial from the
// arenas, so a call allocates nothing polynomial-sized (one limb is N words).
func TestLinearTransformAllocFree(t *testing.T) {
	ctx, ev, ct1, _ := allocEvaluator(t)
	slots := ctx.Params.Slots()
	lt := &LinearTransform{Diags: map[int][]complex128{0: make([]complex128, slots), 1: make([]complex128, slots)}}
	for j := 0; j < slots; j++ {
		lt.Diags[0][j] = complex(0.5, 0)
		lt.Diags[1][j] = complex(float64(j%3)/3, 0)
	}
	enc := NewEncoder(ctx)
	eval := func() {
		out, err := ev.EvalLinearTransform(ct1, lt, enc)
		if err != nil {
			t.Fatal(err)
		}
		ctx.Recycle(out)
	}
	eval() // warm: fills the cache and the arenas
	const runs = 20
	if n := testing.AllocsPerRun(runs, eval); n != 0 {
		t.Errorf("warm EvalLinearTransform+Recycle allocates %.1f per op, want 0", n)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		eval()
	}
	runtime.ReadMemStats(&after)
	limb := uint64(ctx.Params.N() * 8)
	if b := (after.TotalAlloc - before.TotalAlloc) / runs; b >= limb {
		t.Errorf("warm EvalLinearTransform allocates %d B per op, want under one limb (%d B)", b, limb)
	}
}

// TestEncryptAllocFree pins a warm Encrypt+Recycle at zero allocations: the
// public key is transformed once at construction, the samples land in the
// encryptor's buffer, and u, both output halves and the shell come from the
// context's arena.
func TestEncryptAllocFree(t *testing.T) {
	ctx, err := NewContext(TestParams())
	if err != nil {
		t.Fatal(err)
	}
	kg := NewKeyGenerator(ctx, 1)
	et := NewEncryptor(ctx, kg.GenPublicKey(kg.GenSecretKey()), 2)
	level := ctx.Params.MaxLevel()
	pt, err := NewEncoder(ctx).Encode(make([]complex128, ctx.Params.Slots()), level, ctx.Params.Scale)
	if err != nil {
		t.Fatal(err)
	}
	ctx.Recycle(et.Encrypt(pt, level, ctx.Params.Scale)) // warm the arena
	if n := testing.AllocsPerRun(20, func() {
		ctx.Recycle(et.Encrypt(pt, level, ctx.Params.Scale))
	}); n != 0 {
		t.Errorf("warm Encrypt+Recycle allocates %.1f per op, want 0", n)
	}
}
