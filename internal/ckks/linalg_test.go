package ckks

import (
	"errors"
	"math"
	"math/rand"
	"sort"
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
	// Keys draw from one stream, so generate them in a fixed order.
	rotations = append([]int(nil), rotations...)
	sort.Ints(rotations)
	return &ltFixture{
		ctx: ctx,
		enc: NewEncoder(ctx),
		et:  NewEncryptor(ctx, kg.GenPublicKey(sk), seed+1),
		dt:  NewDecryptor(ctx, sk),
		ev:  NewEvaluator(ctx, kg.GenEvaluationKeySet(sk, rotations, false)),
	}
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
// double-hoisted evaluation replaces: Σ_d MulPlain(Rotate(ct, d),
// Encode(diag_d)), then Rescale.
func referenceLinearTransform(t testing.TB, f *ltFixture, ct *Ciphertext, lt *LinearTransform) *Ciphertext {
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
			if rotated, err = f.ev.Rotate(ct, d); err != nil {
				t.Fatal(err)
			}
		}
		pt, err := f.enc.Encode(lt.Diags[d], ct.Level, scale)
		if err != nil {
			t.Fatal(err)
		}
		term := f.ev.MulPlain(rotated, pt, scale)
		if acc == nil {
			acc = term
			continue
		}
		if acc, err = f.ev.Add(acc, term); err != nil {
			t.Fatal(err)
		}
	}
	out, err := f.ev.Rescale(acc)
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

// TestLinearTransformMatchesReference checks the double-hoisted evaluation
// against the per-diagonal reference on the application shapes, at two input
// levels each. The error a transform adds is measured against the plaintext
// product of the decrypted input, so the input's own noise cancels: the
// evaluation's may exceed the reference's by at most half a bit. Each level
// then holds exactly one cache entry.
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
	cases := []struct {
		name   string
		params Parameters
		matrix func(*Context) [][]complex128
	}{
		{"lola-16to8", lola, func(*Context) [][]complex128 { return randomMatrix(8, 16, 61) }},
		{"lola-8to4", lola, func(*Context) [][]complex128 { return randomMatrix(4, 8, 62) }},
		{"bridge-slot-to-coeff", bridge, func(ctx *Context) [][]complex128 {
			v, _ := EncodingMatrices(ctx)
			return v
		}},
		{"diagonal-0-only", lola, func(*Context) [][]complex128 { return diag0Only }},
		{"no-diagonal-0", lola, func(*Context) [][]complex128 { return noDiag0 }},
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
				ref := referenceLinearTransform(t, f, ct, lt)
				gotSlots, refSlots := f.decrypt(got), f.decrypt(ref)
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
