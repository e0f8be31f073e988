package ckks

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"alchemist/internal/modmath"
	"alchemist/internal/ring"
	"alchemist/internal/rlwe"
)

// ErrContextMismatch marks an operand built for another context's
// parameters: an encoder of another context, or a transform whose diagonals
// have another slot count.
var ErrContextMismatch = errors.New("ckks: operand built for another context")

// LinearTransform is a slot-space matrix encoded by its generalized
// diagonals: Diags[d][j] = M[j][(j+d) mod n] — the building block of
// LoLa-style dense layers and of the CoeffToSlot / SlotToCoeff transforms in
// bootstrapping. Evaluating it homomorphically costs one plaintext
// multiplication per non-zero diagonal and, in the baby-step giant-step
// split of Bossuat et al. (Eurocrypt 2021), one rotation keyswitch per baby
// step and per giant step that occurs: about 2·√D keyswitches and rotation
// keys for D diagonals, not D−1.
//
// The first evaluation under a given Context and input level encodes every
// diagonal and caches the NTT-domain plaintexts in the transform, so Diags
// must not be mutated after the first evaluation. A transform may be
// evaluated concurrently, and under several contexts: each (context, level)
// pair gets its own cache entry, at most D·(level+1+|P|)·N·8 bytes for D
// non-zero diagonals.
type LinearTransform struct {
	Diags map[int][]complex128
	Scale float64

	mu    sync.Mutex
	cache map[ltKey]*ltPlaintexts
}

type ltKey struct {
	ctx   *Context
	level int
}

// giantStepCost weighs one giant step against one baby step in the split
// rule. A baby step is one KSAccumulate pair and one NTT-domain
// automorphism; a giant step adds its partial sum's ModDown pair and digit
// decomposition. Timed alone that is 3.3 baby steps at the bridge's shape
// and 4–5 at LoLa's, but whole transforms of the bridge's V at n1 = 16 and
// n1 = 32 time within 2% of each other, and n1 = 16 holds 8 fewer rotation
// keys and 16 fewer baby-step buffers. Every weight above 1 and up to 4
// gives LoLa's layers the same splits; 2 is the largest that keeps the
// bridge at n1 = 16 (DESIGN.md §5k).
const giantStepCost = 2

// bsgsSplit returns the baby-step width n1 for the diagonal residues res
// (distinct, in [0, slots)): the power of two that minimizes the
// keyswitches the split runs, a baby step costing 1 and a giant step
// giantStepCost, ties going to fewer rotation keys and then to the smaller
// n1. Every residue d splits as g + b with g = n1·⌊d/n1⌋ and b = d mod n1;
// an n1 above every residue leaves one giant group (n2 = 1), which is the
// plain double-hoisted transform.
func bsgsSplit(res []int, slots int) int {
	best, bestCost, bestKeys := 1, -1, 0
	for n1 := 1; n1 <= slots; n1 *= 2 {
		babies, giants := splitSteps(res, n1)
		cost := len(babies) + giantStepCost*len(giants)
		keys := len(babies) + len(giants)
		if bestCost < 0 || cost < bestCost || cost == bestCost && keys < bestKeys {
			best, bestCost, bestKeys = n1, cost, keys
		}
	}
	return best
}

// splitSteps returns the non-zero baby steps and giant steps that the
// residues res (ascending) use under width n1, each ascending.
func splitSteps(res []int, n1 int) (babies, giants []int) {
	used := make([]bool, n1)
	for _, d := range res {
		used[d%n1] = true
		if g := d - d%n1; g != 0 && (len(giants) == 0 || giants[len(giants)-1] != g) {
			giants = append(giants, g)
		}
	}
	for b := 1; b < n1; b++ {
		if used[b] {
			babies = append(babies, b)
		}
	}
	return babies, giants
}

// residues returns the transform's diagonal indices reduced mod slots,
// distinct and ascending.
func residues(diags map[int][]complex128, slots int) []int {
	res := make([]int, 0, len(diags))
	for d := range diags {
		res = append(res, (d%slots+slots)%slots)
	}
	slices.Sort(res)
	return slices.Compact(res)
}

// ltPlaintexts is a transform encoded for one (context, level) and grouped
// by giant step. once guards the build, so concurrent first uses encode it
// exactly once.
type ltPlaintexts struct {
	once   sync.Once
	err    error
	babies []int     // the non-zero baby steps, ascending
	giants []ltGiant // ascending; giant step 0 first when it occurs
	zero   bool      // some term uses baby step 0
	terms  int       // the most terms any giant step has
	// scratch holds one evaluation's *ltScratch.
	scratch sync.Pool
}

// ltGiant is one giant step g and its terms Σ_b pt_{g,b} ⊙ rot(ct, b), where
// pt_{g,b} is diagonal g+b rotated by −g, so that rotating the sum by g
// yields Σ_b diag_{g+b} ⊙ rot(ct, g+b).
type ltGiant struct {
	step int
	baby []int        // per term, the index into babies; -1 for baby step 0
	q    []*ring.Poly // per term, the plaintext over Q (levels 0..level)
	p    []*ring.Poly // per term with a non-zero baby step, in order, the plaintext over P
}

// ltScratch is one evaluation's working set: four polynomials per baby
// step (B and A over Q, then over P), borrowed from the arenas, and the
// operand lists of one giant step's inner product.
type ltScratch struct {
	babies []*ring.Poly
	kB, kA []*ring.Poly
}

// plaintexts returns the transform's cached plaintexts for enc's context at
// the given level, encoding them on first use.
func (lt *LinearTransform) plaintexts(enc *Encoder, level int) (*ltPlaintexts, error) {
	key := ltKey{enc.ctx, level}
	lt.mu.Lock()
	if lt.cache == nil {
		lt.cache = map[ltKey]*ltPlaintexts{}
	}
	e := lt.cache[key]
	if e == nil {
		e = &ltPlaintexts{}
		lt.cache[key] = e
	}
	lt.mu.Unlock()
	e.once.Do(func() { e.err = e.build(lt.Diags, enc, level) })
	return e, e.err
}

// build splits the diagonals into baby and giant steps, then encodes each
// diagonal, pre-rotated by its giant step, at the context's default scale
// and moves it into the NTT domain. The order of the terms does not matter:
// the evaluation accumulates them with exact modular sums.
func (e *ltPlaintexts) build(diags map[int][]complex128, enc *Encoder, level int) error {
	ctx := enc.ctx
	rq, rp := ctx.RQ, ctx.RP
	levelP := rp.MaxLevel()
	slots, scale := ctx.Params.Slots(), ctx.Params.Scale
	for d, diag := range diags {
		// A diagonal of another slot count wraps its rotations at another
		// width: it describes a different matrix under this context.
		if len(diag) != slots {
			return fmt.Errorf("%w: diagonal %d has %d entries, the context has %d slots", ErrContextMismatch, d, len(diag), slots)
		}
	}
	res := residues(diags, slots)
	n1 := bsgsSplit(res, slots)
	e.babies, _ = splitSteps(res, n1)
	for _, r := range res {
		if g := r - r%n1; len(e.giants) == 0 || e.giants[len(e.giants)-1].step != g {
			e.giants = append(e.giants, ltGiant{step: g})
		}
	}
	rotated := make([]complex128, slots)
	for d, diag := range diags {
		r := (d%slots + slots) % slots
		g, b := r-r%n1, r%n1
		giant := &e.giants[slices.IndexFunc(e.giants, func(x ltGiant) bool { return x.step == g })]
		for j := range rotated {
			rotated[j] = diag[(j-g+slots)%slots]
		}
		pq := rq.NewPoly(level)
		if b == 0 {
			if err := enc.encodeInto(rotated, scale, level, pq, nil); err != nil {
				return err
			}
			rq.NTT(level, pq)
			e.zero = true
			giant.baby = append(giant.baby, -1)
			giant.q = append(giant.q, pq)
			e.terms = max(e.terms, len(giant.q))
			continue
		}
		pp := rp.NewPoly(levelP)
		if err := enc.encodeInto(rotated, scale, level, pq, pp); err != nil {
			return err
		}
		rq.NTT(level, pq)
		rp.NTT(levelP, pp)
		bi, _ := slices.BinarySearch(e.babies, b)
		giant.baby = append(giant.baby, bi)
		giant.q = append(giant.q, pq)
		giant.p = append(giant.p, pp)
		e.terms = max(e.terms, len(giant.q))
	}
	return nil
}

// NewLinearTransformFromMatrix extracts the non-zero diagonals of an
// out×in matrix acting on the first `in` slots (out ≤ in required; the
// result lands in the first `out` slots).
func NewLinearTransformFromMatrix(m [][]complex128, slots int) (*LinearTransform, error) {
	out := len(m)
	if out == 0 {
		return nil, fmt.Errorf("ckks: empty matrix")
	}
	in := len(m[0])
	if in > slots {
		return nil, fmt.Errorf("ckks: matrix width %d exceeds %d slots", in, slots)
	}
	// Entry M[j][c] needs x[c] to land in slot j, i.e. the rotation by
	// d = (c - j) mod slots (the input is zero-padded, so wrapping is over
	// the full slot vector).
	lt := &LinearTransform{Diags: map[int][]complex128{}}
	for j := 0; j < out; j++ {
		for c := 0; c < in; c++ {
			v := m[j][c]
			if v == 0 {
				continue
			}
			d := ((c-j)%slots + slots) % slots
			if lt.Diags[d] == nil {
				lt.Diags[d] = make([]complex128, slots)
			}
			lt.Diags[d][j] = v
		}
	}
	return lt, nil
}

// Rotations returns the rotation steps the transform needs, for key
// generation: its non-zero baby steps and giant steps, ascending.
func (lt *LinearTransform) Rotations() []int {
	slots := 0
	for _, diag := range lt.Diags {
		slots = max(slots, len(diag))
	}
	if slots == 0 {
		return nil
	}
	res := residues(lt.Diags, slots)
	babies, giants := splitSteps(res, bsgsSplit(res, slots))
	return append(babies, giants...)
}

// EvalLinearTransform applies the transform, Σ_d diag_d ⊙ rot(ct, d),
// followed by a rescale. The evaluator must hold the rotation keys returned
// by Rotations(), and enc must belong to the evaluator's context.
//
// The evaluation is a double-hoisted baby-step giant-step transform. ct.A is
// decomposed once (ModUp), and each baby step b is one permuted keyswitch
// accumulation kept over Q·P in the NTT domain, with P·φ_b(B) added onto
// its Q half; no baby step pays a ModDown. Each giant step g multiplies its
// pre-rotated plaintexts into those baby steps over Q·P. Giant step 0's sum
// goes straight into the output accumulators; any other is brought down to
// Q by one ModDown pair, decomposed, and rotated by g with its keyswitch
// accumulated into the same Q·P accumulators. One final ModDown pair and a
// rescale close the transform. Baby step 0, the input itself, enters the Q
// half as P·B and P·A, which the ModDown divides out exactly. With one giant
// group (n2 = 1) this is one keyswitch accumulation per diagonal and one
// ModDown pair per transform.
func (ev *Evaluator) EvalLinearTransform(ct *Ciphertext, lt *LinearTransform, enc *Encoder) (*Ciphertext, error) {
	if len(lt.Diags) == 0 {
		return nil, fmt.Errorf("ckks: transform has no diagonals")
	}
	ctx := ev.ctx
	if enc.ctx != ctx {
		return nil, fmt.Errorf("%w: the encoder", ErrContextMismatch)
	}
	level := ct.Level
	pts, err := lt.plaintexts(enc, level)
	if err != nil {
		return nil, err
	}
	// Resolve every rotation key first, so no arena state is held across an
	// error return.
	for _, step := range pts.babies {
		if err := ev.hasRotationKey(step); err != nil {
			return nil, err
		}
	}
	for _, g := range pts.giants {
		if g.step == 0 {
			continue
		}
		if err := ev.hasRotationKey(g.step); err != nil {
			return nil, err
		}
	}
	rq, rp := ctx.RQ, ctx.RP
	levelP := rp.MaxLevel()

	acc0Q, acc1Q := rq.BorrowZero(level), rq.BorrowZero(level)
	acc0P, acc1P := rp.BorrowZero(levelP), rp.BorrowZero(levelP)
	pB := rq.Borrow(level)
	ev.nttTimesP(level, ct.B, pB)
	var pA *ring.Poly
	if pts.zero {
		pA = rq.Borrow(level)
		ev.nttTimesP(level, ct.A, pA)
	}
	sc := pts.borrowScratch(ev, ct, pB)
	for gi := range pts.giants {
		g := &pts.giants[gi]
		if g.step == 0 {
			// Giant step 0 comes first, so its sum may overwrite the
			// accumulators.
			g.innerProduct(rq, rp, level, sc, pB, pA, acc0Q, acc1Q, acc0P, acc1P)
			continue
		}
		ev.giantStep(g, level, sc, pB, pA, acc0Q, acc1Q, acc0P, acc1P)
	}
	pts.releaseScratch(sc, ev)
	rq.Release(pB)
	rq.Release(pA)

	rq.INTT(level, acc0Q)
	rq.INTT(level, acc1Q)
	rp.INTT(levelP, acc0P)
	rp.INTT(levelP, acc1P)
	sum := ctx.borrowCt(level, ct.Scale*ctx.Params.Scale)
	ctx.Ext.ModDown(level, acc0Q, acc0P, sum.B)
	ctx.Ext.ModDown(level, acc1Q, acc1P, sum.A)
	rq.Release(acc0Q)
	rq.Release(acc1Q)
	rp.Release(acc0P)
	rp.Release(acc1P)
	// Rescale floors. Offsetting both components by ⌊q_level/2⌋ first makes
	// it round to nearest, so the transform's one division adds no bias for
	// the slot sums to pick up.
	half := ctx.Params.Q[level] / 2
	for i := 0; i <= level; i++ {
		s := rq.SubRings[i]
		h := s.ReduceWord(half)
		for _, c := range [2][]uint64{sum.B.Coeffs[i], sum.A.Coeffs[i]} {
			for j := range c {
				c[j] = modmath.AddMod(c[j], h, s.Q)
			}
		}
	}
	out, err := ev.Rescale(sum)
	ctx.Recycle(sum) //alchemist:owns Recycle returns both of sum's polynomials to the arena
	return out, err
}

// hasRotationKey reports a missing rotation key for step as an error.
func (ev *Evaluator) hasRotationKey(step int) error {
	if ev.eks == nil {
		return fmt.Errorf("ckks: rotation keys missing")
	}
	if _, ok := ev.eks.Rot[ev.ctx.RQ.GaloisElementForRotation(step)]; !ok {
		return fmt.Errorf("ckks: rotation key for step %d missing", step)
	}
	return nil
}

// borrowScratch rotates ct by every baby step over Q·P against one shared
// decomposition of ct.A, given pB = P·B in the NTT domain, into a scratch
// whose polynomials come from the arenas; releaseScratch hands them back.
func (e *ltPlaintexts) borrowScratch(ev *Evaluator, ct *Ciphertext, pB *ring.Poly) *ltScratch {
	sc, ok := e.scratch.Get().(*ltScratch)
	if !ok {
		sc = &ltScratch{
			babies: make([]*ring.Poly, 4*len(e.babies)),
			kB:     make([]*ring.Poly, 0, e.terms),
			kA:     make([]*ring.Poly, 0, e.terms),
		}
	}
	if len(e.babies) == 0 {
		return sc
	}
	babies := sc.babies
	rq, rp := ev.ctx.RQ, ev.ctx.RP
	level, levelP := ct.Level, rp.MaxLevel()
	dec := ev.DecomposeOnce(level, ct.A)
	for i, step := range e.babies {
		babies[4*i], babies[4*i+1] = rq.Borrow(level), rq.Borrow(level)     //alchemist:owns releaseScratch returns the baby steps to the arenas
		babies[4*i+2], babies[4*i+3] = rp.Borrow(levelP), rp.Borrow(levelP) //alchemist:owns releaseScratch returns the baby steps to the arenas
		ev.rotateQP(dec, pB, step, babies[4*i], babies[4*i+1], babies[4*i+2], babies[4*i+3])
	}
	ev.ReleaseDecomposition(dec)
	return sc
}

// releaseScratch returns borrowScratch's polynomials to the arenas.
func (e *ltPlaintexts) releaseScratch(sc *ltScratch, ev *Evaluator) {
	rq, rp := ev.ctx.RQ, ev.ctx.RP
	for i, p := range sc.babies {
		if i%4 < 2 {
			rq.Release(p)
		} else {
			rp.Release(p)
		}
	}
	e.scratch.Put(sc)
}

// rotateQP writes the rotation of (B, A) by step over Q·P in the NTT domain
// into outBQ, outAQ (over Q) and outBP, outAP (over P), from d, the
// decomposition of A, and bP = P·B in the NTT domain: the permuted keyswitch
// accumulation, with φ(P·B) added onto the Q half of B. Nothing is divided
// by P yet.
func (ev *Evaluator) rotateQP(d *rlwe.Decomposition, bP *ring.Poly, step int, outBQ, outAQ, outBP, outAP *ring.Poly) {
	rq, rp := ev.ctx.RQ, ev.ctx.RP
	level, levelP := d.Level, rp.MaxLevel()
	groups := len(d.DQ)
	k := rq.GaloisElementForRotation(step)
	key := ev.eks.Rot[k]
	rq.KSAccumulate(level, d.DQ, key.BQ[:groups], key.AQ[:groups], k, true, outBQ, outAQ)
	rp.KSAccumulate(levelP, d.DP, key.BP[:groups], key.AP[:groups], k, true, outBP, outAP)
	rot := rq.Borrow(level)
	rq.AutomorphismNTT(level, bP, k, rot)
	rq.Add(level, outBQ, rot, outBQ)
	rq.Release(rot)
}

// innerProduct writes the giant step's inner product Σ_b pt_{g,b} ⊙ baby_b
// over Q·P into (acc0Q, acc1Q) over Q and (acc0P, acc1P) over P, which it
// overwrites. Baby step 0 is the input itself: pB = P·B and pA = P·A over
// Q, zero over P. Each basis is one KSAccumulate: the plaintexts play the
// digits and the baby steps' halves the key halves, so every coefficient's
// two sums stay unreduced across the terms and are folded once.
func (g *ltGiant) innerProduct(rq, rp *ring.Ring, level int, sc *ltScratch, pB, pA, acc0Q, acc1Q, acc0P, acc1P *ring.Poly) {
	kB, kA := sc.kB[:0], sc.kA[:0]
	for _, bi := range g.baby {
		if bi < 0 {
			kB, kA = append(kB, pB), append(kA, pA)
			continue
		}
		kB, kA = append(kB, sc.babies[4*bi]), append(kA, sc.babies[4*bi+1])
	}
	rq.KSAccumulate(level, g.q, kB, kA, 0, false, acc0Q, acc1Q)
	if len(g.p) == 0 {
		return
	}
	kB, kA = kB[:0], kA[:0]
	for _, bi := range g.baby {
		if bi >= 0 {
			kB, kA = append(kB, sc.babies[4*bi+2]), append(kA, sc.babies[4*bi+3])
		}
	}
	rp.KSAccumulate(rp.MaxLevel(), g.p, kB, kA, 0, false, acc0P, acc1P)
}

// giantStep rotates a non-zero giant step's inner product by its step and
// adds it into the accumulators (acc0Q, acc1Q) and (acc0P, acc1P): the sum
// is brought down to Q by one ModDown pair, its A half decomposed, and the
// rotation's keyswitch and P·φ_g(B) added over Q·P, where the transform's
// final ModDown divides P out.
func (ev *Evaluator) giantStep(g *ltGiant, level int, sc *ltScratch, pB, pA, acc0Q, acc1Q, acc0P, acc1P *ring.Poly) {
	ctx := ev.ctx
	rq, rp := ctx.RQ, ctx.RP
	levelP := rp.MaxLevel()
	sumBQ, sumAQ := rq.Borrow(level), rq.Borrow(level)
	sumBP, sumAP := rp.BorrowZero(levelP), rp.BorrowZero(levelP)
	g.innerProduct(rq, rp, level, sc, pB, pA, sumBQ, sumAQ, sumBP, sumAP)
	rq.INTT(level, sumBQ)
	rq.INTT(level, sumAQ)
	rp.INTT(levelP, sumBP)
	rp.INTT(levelP, sumAP)
	b, a := rq.Borrow(level), rq.Borrow(level)
	ctx.Ext.ModDown(level, sumBQ, sumBP, b)
	ctx.Ext.ModDown(level, sumAQ, sumAP, a)
	dec := ev.DecomposeOnce(level, a)
	ev.nttTimesP(level, b, a)
	ev.rotateQP(dec, a, g.step, sumBQ, sumAQ, sumBP, sumAP)
	ev.ReleaseDecomposition(dec)
	rq.Release(b)
	rq.Release(a)
	rq.Add(level, acc0Q, sumBQ, acc0Q)
	rq.Add(level, acc1Q, sumAQ, acc1Q)
	rp.Add(levelP, acc0P, sumBP, acc0P)
	rp.Add(levelP, acc1P, sumAP, acc1P)
	rq.Release(sumBQ)
	rq.Release(sumAQ)
	rp.Release(sumBP)
	rp.Release(sumAP)
}

// nttTimesP writes P·src (coefficient domain over Q) into dst in the NTT
// domain at levels 0..level.
func (ev *Evaluator) nttTimesP(level int, src, dst *ring.Poly) {
	rq := ev.ctx.RQ
	rq.CopyLevel(level, src, dst)
	rq.NTT(level, dst)
	for i := 0; i <= level; i++ {
		rq.SubRings[i].MulScalar(dst.Coeffs[i], ev.ctx.PModQ[i], dst.Coeffs[i])
	}
}

// InnerSum folds the first n slots (n a power of two) so that slot 0 holds
// their sum, using log2(n) rotations. Slots beyond n must be zero if only
// the total is wanted.
func (ev *Evaluator) InnerSum(ct *Ciphertext, n int) (*Ciphertext, error) {
	if n <= 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("ckks: InnerSum width %d must be a power of two", n)
	}
	acc := ct
	for step := n / 2; step >= 1; step >>= 1 {
		rot, err := ev.Rotate(acc, step)
		if err != nil {
			return nil, err
		}
		acc, err = ev.Add(acc, rot)
		if err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// MeanVariance computes the mean and variance of the first n slots
// homomorphically: mean = InnerSum(x)/n and var = InnerSum(x²)/n - mean².
// Costs two levels; needs the power-of-two rotation keys up to n/2 and the
// relinearization key.
func (ev *Evaluator) MeanVariance(ct *Ciphertext, n int, enc *Encoder) (mean, variance *Ciphertext, err error) {
	sum, err := ev.InnerSum(ct, n)
	if err != nil {
		return nil, nil, err
	}
	mean, err = ev.MulConst(sum, complex(1/float64(n), 0), enc)
	if err != nil {
		return nil, nil, err
	}
	sq, err := ev.MulRelin(ct, ct)
	if err != nil {
		return nil, nil, err
	}
	sq, err = ev.Rescale(sq)
	if err != nil {
		return nil, nil, err
	}
	sqSum, err := ev.InnerSum(sq, n)
	if err != nil {
		return nil, nil, err
	}
	meanSq, err := ev.MulConst(sqSum, complex(1/float64(n), 0), enc)
	if err != nil {
		return nil, nil, err
	}
	m2, err := ev.MulRelin(mean, mean)
	if err != nil {
		return nil, nil, err
	}
	m2, err = ev.Rescale(m2)
	if err != nil {
		return nil, nil, err
	}
	return mean, ev.subApprox(meanSq, m2), nil
}

// EvalPolyHorner evaluates Σ coeffs[i]·x^i on the ciphertext with Horner's
// rule: one Cmult + rescale per degree. coeffs[0] is the constant term.
// Consumes len(coeffs)-1 levels.
func (ev *Evaluator) EvalPolyHorner(ct *Ciphertext, coeffs []float64, enc *Encoder) (*Ciphertext, error) {
	if len(coeffs) == 0 {
		return nil, fmt.Errorf("ckks: empty polynomial")
	}
	n := ev.ctx.Params.Slots()
	constVec := func(v float64, level int) (*ring.Poly, error) {
		z := make([]complex128, n)
		for i := range z {
			z[i] = complex(v, 0)
		}
		return enc.Encode(z, level, ev.ctx.Params.Scale)
	}
	// acc = c_k
	acc, err := func() (*Ciphertext, error) {
		pt, err := constVec(coeffs[len(coeffs)-1], ct.Level)
		if err != nil {
			return nil, err
		}
		zero := ev.ctx.CopyCt(ct)
		ev.ctx.RQ.Sub(ct.Level, zero.B, ct.B, zero.B) // zero ciphertext
		ev.ctx.RQ.Sub(ct.Level, zero.A, ct.A, zero.A)
		return ev.AddPlain(zero, pt), nil
	}()
	if err != nil {
		return nil, err
	}
	for i := len(coeffs) - 2; i >= 0; i-- {
		prod, err := ev.MulRelin(acc, ct)
		if err != nil {
			return nil, err
		}
		prod, err = ev.Rescale(prod)
		if err != nil {
			return nil, err
		}
		pt, err := constVec(coeffs[i], prod.Level)
		if err != nil {
			return nil, err
		}
		acc = ev.AddPlain(prod, pt)
	}
	return acc, nil
}
