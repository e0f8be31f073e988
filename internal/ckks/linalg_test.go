package ckks

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestLinearTransformMatchesPlainMatVec(t *testing.T) {
	params := TestParams()
	ctx, err := NewContext(params)
	if err != nil {
		t.Fatal(err)
	}
	slots := params.Slots()
	in, out := 8, 4
	rng := rand.New(rand.NewSource(51))
	m := make([][]complex128, out)
	for i := range m {
		m[i] = make([]complex128, in)
		for j := range m[i] {
			m[i][j] = complex(rng.Float64()*2-1, 0)
		}
	}
	lt, err := NewLinearTransformFromMatrix(m, slots)
	if err != nil {
		t.Fatal(err)
	}

	enc := NewEncoder(ctx)
	kg := NewKeyGenerator(ctx, 52)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	eks := kg.GenEvaluationKeySet(sk, lt.Rotations(), false)
	et := NewEncryptor(ctx, pk, 53)
	dt := NewDecryptor(ctx, sk)
	ev := NewEvaluator(ctx, eks)

	x := make([]complex128, slots)
	for j := 0; j < in; j++ {
		x[j] = complex(rng.Float64()*2-1, 0)
	}
	level := params.MaxLevel()
	pt, _ := enc.Encode(x, level, params.Scale)
	ct := et.Encrypt(pt, level, params.Scale)

	res, err := ev.EvalLinearTransform(ct, lt, enc)
	if err != nil {
		t.Fatal(err)
	}
	got := enc.Decode(dt.DecryptPoly(res), res.Level, res.Scale)
	for i := 0; i < out; i++ {
		var want complex128
		for j := 0; j < in; j++ {
			want += m[i][j] * x[j]
		}
		if d := got[i] - want; real(d)*real(d)+imag(d)*imag(d) > 1e-6 {
			t.Fatalf("slot %d: got %v want %v", i, got[i], want)
		}
	}
}

// ltFixture is one keyed context for the linear-transform tests.
type ltFixture struct {
	ctx *Context
	kg  *KeyGenerator
	sk  *SecretKey
	enc *Encoder
	et  *Encryptor
	dt  *Decryptor
	ev  *Evaluator
}

func newLTFixture(t testing.TB, params Parameters, rotations []int, seed int64) *ltFixture {
	t.Helper()
	ctx, err := NewContext(params)
	if err != nil {
		t.Fatal(err)
	}
	kg := NewKeyGenerator(ctx, seed)
	sk := kg.GenSecretKey()
	return &ltFixture{
		ctx: ctx,
		kg:  kg,
		sk:  sk,
		enc: NewEncoder(ctx),
		et:  NewEncryptor(ctx, kg.GenPublicKey(sk), seed+1),
		dt:  NewDecryptor(ctx, sk),
		ev:  NewEvaluator(ctx, kg.GenEvaluationKeySet(sk, rotations, false)),
	}
}

// perDiagonalEvaluator returns an evaluator under the fixture's secret that
// holds a rotation key for every non-zero diagonal of lt, as the
// per-diagonal reference needs.
func (f *ltFixture) perDiagonalEvaluator(lt *LinearTransform) *Evaluator {
	steps := make([]int, 0, len(lt.Diags))
	for d := range lt.Diags {
		if d != 0 {
			steps = append(steps, d)
		}
	}
	return NewEvaluator(f.ctx, f.kg.GenEvaluationKeySet(f.sk, steps, false))
}

// encrypt encrypts x at the top level, then drops it to the given level.
func (f *ltFixture) encrypt(t testing.TB, x []complex128, level int) *Ciphertext {
	t.Helper()
	top := f.ctx.Params.MaxLevel()
	pt, err := f.enc.Encode(x, top, f.ctx.Params.Scale)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := f.ev.DropLevel(f.et.Encrypt(pt, top, f.ctx.Params.Scale), level)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

func (f *ltFixture) decrypt(ct *Ciphertext) []complex128 {
	return f.enc.Decode(f.dt.DecryptPoly(ct), ct.Level, ct.Scale)
}

// referenceLinearTransform is the per-diagonal formulation the
// baby-step giant-step evaluation replaces: Σ_d MulPlain(Rotate(ct, d),
// Encode(diag_d)), then Rescale, on ev, which must hold a rotation key for
// every non-zero diagonal.
func referenceLinearTransform(t testing.TB, f *ltFixture, ev *Evaluator, ct *Ciphertext, lt *LinearTransform) *Ciphertext {
	t.Helper()
	steps := make([]int, 0, len(lt.Diags))
	for d := range lt.Diags {
		steps = append(steps, d)
	}
	sort.Ints(steps)
	scale := f.ctx.Params.Scale
	var acc *Ciphertext
	for _, d := range steps {
		rotated := ct
		if d != 0 {
			var err error
			if rotated, err = ev.Rotate(ct, d); err != nil {
				t.Fatal(err)
			}
		}
		pt, err := f.enc.Encode(lt.Diags[d], ct.Level, scale)
		if err != nil {
			t.Fatal(err)
		}
		term := ev.MulPlain(rotated, pt, scale)
		if acc == nil {
			acc = term
			continue
		}
		if acc, err = ev.Add(acc, term); err != nil {
			t.Fatal(err)
		}
	}
	out, err := ev.Rescale(acc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// matVec is the plaintext product of an out×in matrix with the first in
// slots of x, zero-padded to len(x) slots.
func matVec(m [][]complex128, x []complex128) []complex128 {
	y := make([]complex128, len(x))
	for j, row := range m {
		for c, v := range row {
			y[j] += v * x[c]
		}
	}
	return y
}

func randomMatrix(rows, cols int, seed int64) [][]complex128 {
	rng := rand.New(rand.NewSource(seed))
	m := make([][]complex128, rows)
	for i := range m {
		m[i] = make([]complex128, cols)
		for j := range m[i] {
			m[i][j] = complex(rng.Float64()*2-1, 0)
		}
	}
	return m
}

func ltInput(slots, in int, seed int64) []complex128 {
	x := make([]complex128, slots)
	copy(x, randomSlots(in, seed, 1.0))
	return x
}

// TestLinearTransformMatchesReference checks the baby-step giant-step
// evaluation against the per-diagonal reference on the application shapes
// and on split corner cases, at two input levels each. The evaluation runs
// on an evaluator that holds only the transform's Rotations() keys; the
// reference gets a key for every diagonal. The error a transform adds is
// measured against the plaintext product of the decrypted input, so the
// input's own noise cancels: the evaluation's may exceed the reference's by
// at most half a bit. Each level then holds exactly one cache entry, split
// into the pinned number of giant steps.
func TestLinearTransformMatchesReference(t *testing.T) {
	lola := TestParams()
	bridge, err := GenParams(9, 3, 2, 2, 45, 42, 45)
	if err != nil {
		t.Fatal(err)
	}
	diag0Only := make([][]complex128, 8)
	for j := range diag0Only {
		diag0Only[j] = make([]complex128, 8)
		diag0Only[j][j] = complex(float64(j+1)/8, 0)
	}
	noDiag0 := randomMatrix(4, 8, 64)
	for j := range noDiag0 {
		noDiag0[j][j] = 0
	}
	// Strictly lower triangular: diagonals slots−7 … slots−1 only, every
	// one of them wrapped.
	wrapped := randomMatrix(8, 8, 65)
	for j := range wrapped {
		for c := j; c < 8; c++ {
			wrapped[j][c] = 0
		}
	}
	// Eight diagonals in four far-apart pairs across the slot vector.
	sparse := make([][]complex128, 4)
	for j, row := range randomMatrix(4, 8, 66) {
		sparse[j] = make([]complex128, lola.Slots())
		for i, d := range []int{0, 5, 64, 69, 512, 517, 1000, 1005} {
			sparse[j][(j+d)%lola.Slots()] = row[i]
		}
	}
	// Diagonals {0, 1, 2}: small enough for one giant group.
	tridiag := make([][]complex128, 8)
	for j, row := range randomMatrix(8, 3, 67) {
		tridiag[j] = make([]complex128, 10)
		copy(tridiag[j][j:], row)
	}
	cases := []struct {
		name   string
		params Parameters
		matrix func(*Context) [][]complex128
		giants int // giant steps, step 0 included, in the split
	}{
		{"lola-16to8", lola, func(*Context) [][]complex128 { return randomMatrix(8, 16, 61) }, 3},
		{"lola-8to4", lola, func(*Context) [][]complex128 { return randomMatrix(4, 8, 62) }, 3},
		{"bridge-slot-to-coeff", bridge, func(ctx *Context) [][]complex128 {
			v, _ := EncodingMatrices(ctx)
			return v
		}, 16},
		{"diagonal-0-only", lola, func(*Context) [][]complex128 { return diag0Only }, 1},
		{"no-diagonal-0", lola, func(*Context) [][]complex128 { return noDiag0 }, 3},
		{"wrapped-only", lola, func(*Context) [][]complex128 { return wrapped }, 2},
		{"sparse-far-apart", lola, func(*Context) [][]complex128 { return sparse }, 4},
		{"one-giant-group", lola, func(*Context) [][]complex128 { return tridiag }, 1},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, err := NewContext(tc.params)
			if err != nil {
				t.Fatal(err)
			}
			m := tc.matrix(ctx)
			slots := tc.params.Slots()
			lt, err := NewLinearTransformFromMatrix(m, slots)
			if err != nil {
				t.Fatal(err)
			}
			f := newLTFixture(t, tc.params, lt.Rotations(), int64(70+ci))
			ref := f.perDiagonalEvaluator(lt)
			x := ltInput(slots, len(m[0]), int64(80+ci))
			want := matVec(m, x)
			top := tc.params.MaxLevel()
			for _, level := range []int{top, top - 1} {
				ct := f.encrypt(t, x, level)
				got, err := f.ev.EvalLinearTransform(ct, lt, f.enc)
				if err != nil {
					t.Fatal(err)
				}
				if got.Level != level-1 {
					t.Fatalf("level %d: output at level %d, want %d", level, got.Level, level-1)
				}
				gotSlots := f.decrypt(got)
				refSlots := f.decrypt(referenceLinearTransform(t, f, ref, ct, lt))
				if e := maxSlotError(gotSlots, want); e > 1e-6 {
					t.Fatalf("level %d: max slot error %g against the plaintext product", level, e)
				}
				exact := matVec(m, f.decrypt(ct))
				added, addedRef := maxSlotError(gotSlots, exact), maxSlotError(refSlots, exact)
				t.Logf("level %d: adds 2^%.2f max slot error (reference 2^%.2f)", level, math.Log2(added), math.Log2(addedRef))
				if added > addedRef*math.Sqrt2 {
					t.Errorf("level %d: adds max slot error %.3g, over half a bit above the reference's %.3g", level, added, addedRef)
				}
			}
			if n := len(lt.cache); n != 2 {
				t.Errorf("transform caches %d entries after two input levels, want 2", n)
			}
			for key, e := range lt.cache {
				if len(e.giants) != tc.giants {
					t.Errorf("level %d: split into %d giant steps, want %d", key.level, len(e.giants), tc.giants)
				}
			}
		})
	}

	// The same transform under a second context: one with other moduli but
	// the same slot count gets its own cache entry and a correct result; one
	// with another slot count, or a foreign encoder, is a typed error.
	t.Run("second-context", func(t *testing.T) {
		m := randomMatrix(4, 8, 62)
		lt, err := NewLinearTransformFromMatrix(m, lola.Slots())
		if err != nil {
			t.Fatal(err)
		}
		f1 := newLTFixture(t, lola, lt.Rotations(), 90)
		x := ltInput(lola.Slots(), 8, 91)
		want := matVec(m, x)
		if _, err := f1.ev.EvalLinearTransform(f1.encrypt(t, x, lola.MaxLevel()), lt, f1.enc); err != nil {
			t.Fatal(err)
		}

		other, err := GenParams(11, 4, 3, 2, 50, 42, 55)
		if err != nil {
			t.Fatal(err)
		}
		f2 := newLTFixture(t, other, lt.Rotations(), 92)
		for _, level := range []int{other.MaxLevel(), other.MaxLevel() - 1} {
			got, err := f2.ev.EvalLinearTransform(f2.encrypt(t, x, level), lt, f2.enc)
			if err != nil {
				t.Fatal(err)
			}
			if e := maxSlotError(f2.decrypt(got), want); e > 1e-6 {
				t.Fatalf("second context, level %d: max slot error %g", level, e)
			}
		}
		if n := len(lt.cache); n != 3 {
			t.Errorf("transform caches %d entries for three (context, level) pairs, want 3", n)
		}

		small := newLTFixture(t, bridge, nil, 93)
		ct := small.encrypt(t, ltInput(bridge.Slots(), 8, 94), bridge.MaxLevel())
		if _, err := small.ev.EvalLinearTransform(ct, lt, small.enc); !errors.Is(err, ErrContextMismatch) {
			t.Errorf("transform of another slot count: err = %v, want ErrContextMismatch", err)
		}
		ct1 := f1.encrypt(t, x, lola.MaxLevel())
		if _, err := f1.ev.EvalLinearTransform(ct1, lt, f2.enc); !errors.Is(err, ErrContextMismatch) {
			t.Errorf("encoder of another context: err = %v, want ErrContextMismatch", err)
		}
	})
}

// TestLinearTransformRotationKeyCounts pins how many rotation keys the
// application transforms need under the baby-step giant-step split, against
// the one key per non-zero diagonal they needed before it, and checks that
// Rotations() comes out ascending and free of duplicates.
func TestLinearTransformRotationKeyCounts(t *testing.T) {
	perDiagonal := func(lts ...*LinearTransform) int {
		steps := map[int]bool{}
		for _, lt := range lts {
			for d := range lt.Diags {
				if d != 0 {
					steps[d] = true
				}
			}
		}
		return len(steps)
	}
	union := func(lts ...*LinearTransform) []int {
		var steps []int
		for _, lt := range lts {
			rots := lt.Rotations()
			if !slices.IsSorted(rots) || len(slices.Compact(slices.Clone(rots))) != len(rots) {
				t.Fatalf("Rotations() = %v, want ascending and distinct", rots)
			}
			steps = append(steps, rots...)
		}
		slices.Sort(steps)
		return slices.Compact(steps)
	}

	bridge, err := GenParams(9, 3, 2, 2, 45, 42, 45)
	if err != nil {
		t.Fatal(err)
	}
	bctx, err := NewContext(bridge)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := EncodingMatrices(bctx)
	s2c, err := NewLinearTransformFromMatrix(v, bridge.Slots())
	if err != nil {
		t.Fatal(err)
	}
	lola, err := NewLinearTransformFromMatrix(randomMatrix(8, 16, 61), TestParams().Slots())
	if err != nil {
		t.Fatal(err)
	}
	btctx, _, _ := bootstrapContext(t)
	v, vinv := EncodingMatrices(btctx)
	c2s, err := NewLinearTransformFromMatrix(vinv, btctx.Params.Slots())
	if err != nil {
		t.Fatal(err)
	}
	bs2c, err := NewLinearTransformFromMatrix(v, btctx.Params.Slots())
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name          string
		lts           []*LinearTransform
		before, after int
	}{
		// The dense 256×256 V splits as 16 baby steps by 16 giant steps.
		{"bridge SlotToCoeff, N=2^9", []*LinearTransform{s2c}, 255, 30},
		// Diagonals −7 … 15: baby steps 1 … 7, giant steps 8 and −8.
		{"lola 16→8, TestParams", []*LinearTransform{lola}, 22, 9},
		// Two dense 32×32 transforms: 8 baby steps by 4 giant steps each.
		{"bootstrap CoeffToSlot ∪ SlotToCoeff, N=2^6", []*LinearTransform{c2s, bs2c}, 31, 10},
	} {
		if got := perDiagonal(tc.lts...); got != tc.before {
			t.Errorf("%s: %d non-zero diagonals, want %d", tc.name, got, tc.before)
		}
		if got := len(union(tc.lts...)); got != tc.after {
			t.Errorf("%s: %d rotation keys, want %d (one per diagonal: %d)", tc.name, got, tc.after, tc.before)
		}
	}
}

// TestBSGSLinearTransformAllocFree pins a warm transform with several giant
// steps at zero allocations: the baby-step polynomials come from the arenas
// and the slice that holds them from the cache entry's pool.
func TestBSGSLinearTransformAllocFree(t *testing.T) {
	params := TestParams()
	lt, err := NewLinearTransformFromMatrix(randomMatrix(8, 16, 61), params.Slots())
	if err != nil {
		t.Fatal(err)
	}
	f := newLTFixture(t, params, lt.Rotations(), 97)
	ct := f.encrypt(t, ltInput(params.Slots(), 16, 98), params.MaxLevel())
	eval := func() {
		out, err := f.ev.EvalLinearTransform(ct, lt, f.enc)
		if err != nil {
			t.Fatal(err)
		}
		f.ctx.Recycle(out)
	}
	eval() // warm: fills the cache and the arenas
	if n := testing.AllocsPerRun(10, eval); n != 0 {
		t.Errorf("warm three-giant-step EvalLinearTransform+Recycle allocates %.1f per op, want 0", n)
	}
}

// TestConcurrentLinearTransformFirstUse runs one shared, not yet cached
// transform from four goroutines at once, as the bridge does with its
// SlotToCoeff transform: the plaintexts are built once and every result is
// bit-identical to a serial evaluation of a fresh transform.
func TestConcurrentLinearTransformFirstUse(t *testing.T) {
	params := TestParams()
	m := randomMatrix(8, 16, 61)
	newLT := func() *LinearTransform {
		lt, err := NewLinearTransformFromMatrix(m, params.Slots())
		if err != nil {
			t.Fatal(err)
		}
		return lt
	}
	serial := newLT()
	f := newLTFixture(t, params, serial.Rotations(), 95)
	ct := f.encrypt(t, ltInput(params.Slots(), 16, 96), params.MaxLevel())
	ref, err := f.ev.EvalLinearTransform(ct, serial, f.enc)
	if err != nil {
		t.Fatal(err)
	}

	shared := newLT()
	const workers = 4
	var wg sync.WaitGroup
	outs := make([]*Ciphertext, workers)
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			outs[w], errs[w] = f.ev.EvalLinearTransform(ct, shared, f.enc)
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		if !f.ctx.RQ.Equal(ref.Level, ref.B, outs[w].B) || !f.ctx.RQ.Equal(ref.Level, ref.A, outs[w].A) {
			t.Fatalf("goroutine %d: concurrent first use differs from the serial evaluation", w)
		}
	}
	if n := len(shared.cache); n != 1 {
		t.Errorf("transform caches %d entries after one level, want 1", n)
	}
}

// TestLinearTransformMissingKey drops each of a transform's rotation keys in
// turn: the evaluation must name the missing step instead of panicking,
// whether the step is a baby step or a giant step.
func TestLinearTransformMissingKey(t *testing.T) {
	params := TestParams()
	lt, err := NewLinearTransformFromMatrix(randomMatrix(8, 16, 61), params.Slots())
	if err != nil {
		t.Fatal(err)
	}
	f := newLTFixture(t, params, nil, 99)
	ct := f.encrypt(t, ltInput(params.Slots(), 16, 100), params.MaxLevel())
	rots := lt.Rotations()
	for i, step := range rots {
		ev := NewEvaluator(f.ctx, f.kg.GenEvaluationKeySet(f.sk, slices.Delete(slices.Clone(rots), i, i+1), false))
		_, err := ev.EvalLinearTransform(ct, lt, f.enc)
		if want := fmt.Sprintf("rotation key for step %d missing", step); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("without step %d: err = %v, want %q", step, err, want)
		}
	}
}

func TestLinearTransformErrors(t *testing.T) {
	if _, err := NewLinearTransformFromMatrix(nil, 8); err == nil {
		t.Fatal("expected empty-matrix error")
	}
	wide := [][]complex128{make([]complex128, 32)}
	if _, err := NewLinearTransformFromMatrix(wide, 8); err == nil {
		t.Fatal("expected too-wide error")
	}
}

func TestInnerSum(t *testing.T) {
	h := newHarness(t, []int{1, 2, 4, 8})
	n := 16
	slots := h.ctx.Params.Slots()
	z := make([]complex128, slots)
	var want complex128
	for i := 0; i < n; i++ {
		z[i] = complex(float64(i+1)/10, 0)
		want += z[i]
	}
	ct := h.encrypt(t, z)
	sum, err := h.ev.InnerSum(ct, n)
	if err != nil {
		t.Fatal(err)
	}
	got := h.decrypt(sum)
	if d := got[0] - want; real(d)*real(d)+imag(d)*imag(d) > 1e-6 {
		t.Fatalf("InnerSum: got %v want %v", got[0], want)
	}
	if _, err := h.ev.InnerSum(ct, 3); err == nil {
		t.Fatal("expected power-of-two error")
	}
}

func TestEvalPolyHorner(t *testing.T) {
	h := newHarness(t, nil)
	slots := h.ctx.Params.Slots()
	z := make([]complex128, slots)
	rng := rand.New(rand.NewSource(54))
	for i := range z {
		z[i] = complex(rng.Float64()*1.6-0.8, 0)
	}
	ct := h.encrypt(t, z)
	// sigmoid-ish cubic: 0.5 + 0.15x - 0.0015x^3 over [-0.8, 0.8].
	coeffs := []float64{0.5, 0.15, 0, -0.0015}
	res, err := h.ev.EvalPolyHorner(ct, coeffs, h.enc)
	if err != nil {
		t.Fatal(err)
	}
	got := h.decrypt(res)
	for i := range z {
		x := real(z[i])
		want := 0.5 + 0.15*x - 0.0015*x*x*x
		if d := real(got[i]) - want; d > 1e-2 || d < -1e-2 {
			t.Fatalf("slot %d: poly(%v) = %v want %v", i, x, real(got[i]), want)
		}
	}
	if _, err := h.ev.EvalPolyHorner(ct, nil, h.enc); err == nil {
		t.Fatal("expected empty-poly error")
	}
}

func TestMeanVariance(t *testing.T) {
	h := newHarness(t, []int{1, 2, 4, 8})
	n := 16
	slots := h.ctx.Params.Slots()
	z := make([]complex128, slots)
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := float64(i%5)/5 - 0.4
		z[i] = complex(v, 0)
		sum += v
		sumSq += v * v
	}
	wantMean := sum / float64(n)
	wantVar := sumSq/float64(n) - wantMean*wantMean

	ct := h.encrypt(t, z)
	mean, variance, err := h.ev.MeanVariance(ct, n, h.enc)
	if err != nil {
		t.Fatal(err)
	}
	gotMean := real(h.decrypt(mean)[0])
	gotVar := real(h.decrypt(variance)[0])
	if d := gotMean - wantMean; d > 1e-3 || d < -1e-3 {
		t.Fatalf("mean %v want %v", gotMean, wantMean)
	}
	if d := gotVar - wantVar; d > 1e-3 || d < -1e-3 {
		t.Fatalf("variance %v want %v", gotVar, wantVar)
	}
}
