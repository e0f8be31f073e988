package lint

import (
	"go/token"
	"go/types"
	"testing"
)

// The interval lattice is the soundness core of the lazy-bounds rule: every
// transfer function below must over-approximate the concrete arithmetic.
// These tests pin the algebra separately from the fixture goldens, so a
// lattice regression is reported as the broken operation, not as a confusing
// golden diff.

func TestLazyBoundsJoin(t *testing.T) {
	cases := []struct {
		name string
		a, b absVal
		want absVal
	}{
		{"identical", knownResidue(2), knownResidue(2), knownResidue(2)},
		{"hull", knownResidue(1), knownResidue(4), knownResidue(4)},
		{"top-absorbs", topVal(), knownResidue(1), topVal()},
		{"known-or-assumed", knownResidue(2), assumedResidue(1),
			absVal{kind: avResidue, bound: 2, known: true}},
		{"same-modmul", modMulVal(2), modMulVal(2), modMulVal(2)},
		{"modmul-hull-widens", modMulVal(2), modMulVal(1),
			absVal{kind: avResidue, bound: 3, bias: 1, known: true}},
		{"modmul-with-residue", modMulVal(2), knownResidue(1),
			absVal{kind: avResidue, bound: 3, known: true}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := joinVals(c.a, c.b); got != c.want {
				t.Errorf("joinVals(%+v, %+v) = %+v, want %+v", c.a, c.b, got, c.want)
			}
			// Join is commutative up to the hull.
			if got := joinVals(c.b, c.a); got != c.want {
				t.Errorf("joinVals(%+v, %+v) = %+v, want %+v", c.b, c.a, got, c.want)
			}
		})
	}
}

func TestLazyBoundsAdd(t *testing.T) {
	cases := []struct {
		name string
		a, b absVal
		want absVal
	}{
		// The Harvey butterfly sum: u < 2q plus v < 2q stays under 4q.
		{"residue-sum", knownResidue(2), knownResidue(2), knownResidue(4)},
		{"assumed-stays-assumed", assumedResidue(1), assumedResidue(1), assumedResidue(2)},
		// u + twoQ shifts BOTH interval ends by exactly 2: [0,2q)+2q = [2q,4q).
		// Widening the exact multiple first would give [0,5q) and break the
		// butterfly difference bound.
		{"residue-plus-exact-multiple", knownResidue(2), modMulVal(2),
			absVal{kind: avResidue, bound: 4, bias: 2, known: true}},
		{"exact-multiple-first", modMulVal(2), knownResidue(2),
			absVal{kind: avResidue, bound: 4, bias: 2, known: true}},
		{"modmul-pair", modMulVal(1), modMulVal(2), modMulVal(3)},
		{"top-poisons", topVal(), knownResidue(1), topVal()},
		{"saturates-to-top", knownResidue(maxBound), knownResidue(1), topVal()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := addVals(c.a, c.b); got != c.want {
				t.Errorf("addVals(%+v, %+v) = %+v, want %+v", c.a, c.b, got, c.want)
			}
		})
	}
}

func TestLazyBoundsSub(t *testing.T) {
	twoQBiased := addVals(knownResidue(2), modMulVal(2)) // u + twoQ = [2q,4q)
	cases := []struct {
		name string
		a, b absVal
		want absVal
	}{
		// The full butterfly chain: (u + twoQ) - v with u,v < 2q lands in
		// [0,4q) — the bias contributed by twoQ absorbs v's bound, so the
		// subtraction cannot wrap.
		{"twoq-biased-butterfly", twoQBiased, knownResidue(2),
			absVal{kind: avResidue, bound: 4, bias: 0, known: true}},
		// Without the bias the subtraction may wrap around 2^64: top.
		{"unbiased-wraps", knownResidue(2), knownResidue(2), topVal()},
		{"partial-bias-wraps", addVals(knownResidue(2), modMulVal(1)), knownResidue(2), topVal()},
		{"residue-minus-exact-multiple", twoQBiased, modMulVal(2),
			absVal{kind: avResidue, bound: 2, bias: 0, known: true}},
		{"exact-multiple-minus-residue", modMulVal(2), knownResidue(1),
			absVal{kind: avResidue, bound: 3, bias: 1, known: true}},
		{"exact-multiple-underflows", modMulVal(1), knownResidue(2), topVal()},
		{"modmul-pair", modMulVal(3), modMulVal(1), modMulVal(2)},
		{"top-poisons", knownResidue(4), topVal(), topVal()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := subVals(c.a, c.b); got != c.want {
				t.Errorf("subVals(%+v, %+v) = %+v, want %+v", c.a, c.b, got, c.want)
			}
		})
	}
}

func TestLazyBoundsMulConst(t *testing.T) {
	cases := []struct {
		name string
		v    absVal
		c    int
		want absVal
	}{
		// twoQ := 2 * q is the canonical use: an exact multiple scales to an
		// exact multiple.
		{"twoq", modMulVal(1), 2, modMulVal(2)},
		{"residue-doubles", knownResidue(2), 2, knownResidue(4)},
		{"zero-drops-relation", modMulVal(1), 0, topVal()},
		{"saturates", modMulVal(1), maxBound + 1, topVal()},
		{"top-stays-top", topVal(), 2, topVal()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := mulConst(c.v, c.c); got != c.want {
				t.Errorf("mulConst(%+v, %d) = %+v, want %+v", c.v, c.c, got, c.want)
			}
		})
	}
}

func TestLazyBoundsCondSub(t *testing.T) {
	cases := []struct {
		name     string
		in       absVal
		k        int
		want     absVal
		narrowed bool
	}{
		// One subtraction of 2q folds the [0,4q) accumulator range to [0,2q).
		{"fold-4q-by-2q", knownResidue(4), 2, knownResidue(2), true},
		// One subtraction of q folds the Shoup product range to canonical.
		{"fold-2q-by-q", knownResidue(2), 1, knownResidue(1), true},
		// Already inside the bound: the call is a no-op, not a proof.
		{"already-tight", knownResidue(2), 2, knownResidue(2), false},
		{"cannot-overshoot", knownResidue(3), 2, knownResidue(2), true},
		// Assumed values narrow but are never counted as proven sites.
		{"assumed-not-proven", assumedResidue(4), 2, assumedResidue(2), false},
		{"top-stays-top", topVal(), 1, topVal(), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, narrowed := condSubVal(c.in, c.k)
			if got != c.want || narrowed != c.narrowed {
				t.Errorf("condSubVal(%+v, %d) = %+v, %v, want %+v, %v",
					c.in, c.k, got, narrowed, c.want, c.narrowed)
			}
		})
	}
}

// TestLazyBoundsStateJoin pins the state join at control-flow merges: a
// value tracked on both paths takes the hull, a value tracked on only one
// path drops to top, and joining a state into itself changes nothing, so
// the fixpoint terminates.
func TestLazyBoundsStateJoin(t *testing.T) {
	a := types.NewVar(token.NoPos, nil, "x", types.Typ[types.Uint64])
	b := types.NewVar(token.NoPos, nil, "y", types.Typ[types.Uint64])

	s := newLBState()
	s.set(a, knownResidue(1))
	s.set(b, knownResidue(2))
	o := newLBState()
	o.set(a, knownResidue(4))

	if !s.join(o) {
		t.Fatal("join reported no change")
	}
	if got := s.get(a); got != knownResidue(4) {
		t.Errorf("x = %+v, want the hull %+v", got, knownResidue(4))
	}
	if got := s.get(b); !got.isTop() {
		t.Errorf("y = %+v, want top: it is tracked on one path only", got)
	}
	if s.join(s.clone()) {
		t.Error("joining a state into itself reported a change — fixpoint cannot terminate")
	}
}
