package ckks

import (
	"errors"
	"fmt"
	"sync"

	"alchemist/internal/modmath"
	"alchemist/internal/ring"
)

// ErrContextMismatch marks an operand built for another context's
// parameters: an encoder of another context, or a transform whose diagonals
// have another slot count.
var ErrContextMismatch = errors.New("ckks: operand built for another context")

// LinearTransform is a slot-space matrix encoded by its generalized
// diagonals: Diags[d][j] = M[j][(j+d) mod n]. Evaluating it homomorphically
// costs one hoisted rotation keyswitch and one plaintext multiplication per
// non-zero diagonal — the building block of LoLa-style dense layers and of
// the CoeffToSlot / SlotToCoeff transforms in bootstrapping.
//
// The first evaluation under a given Context and input level encodes every
// diagonal and caches the NTT-domain plaintexts in the transform, so Diags
// must not be mutated after the first evaluation. A transform may be
// evaluated concurrently, and under several contexts: each (context, level)
// pair gets its own cache entry, costing D·(level+1+|P|)·N·8 bytes for D
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

// ltPlaintexts is a transform encoded for one (context, level): diagonal 0
// over Q and every other diagonal over Q·P, all in the NTT domain. once
// guards the build, so concurrent first uses encode it exactly once.
type ltPlaintexts struct {
	once  sync.Once
	err   error
	zero  *ring.Poly   // diagonal 0 over Q (levels 0..level); nil if absent
	steps []int        // the non-zero diagonals
	q, p  []*ring.Poly // each one's plaintext over Q (levels 0..level) and P
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

// build encodes every diagonal at the context's default scale and moves it
// into the NTT domain. The order of the entries does not matter: the
// evaluation accumulates them with exact modular sums.
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
		pq := rq.NewPoly(level)
		if d == 0 {
			if err := enc.encodeInto(diag, scale, level, pq, nil); err != nil {
				return err
			}
			rq.NTT(level, pq)
			e.zero = pq
			continue
		}
		pp := rp.NewPoly(levelP)
		if err := enc.encodeInto(diag, scale, level, pq, pp); err != nil {
			return err
		}
		rq.NTT(level, pq)
		rp.NTT(levelP, pp)
		e.steps = append(e.steps, d)
		e.q = append(e.q, pq)
		e.p = append(e.p, pp)
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

// Rotations returns the rotation steps the transform needs (for key
// generation).
func (lt *LinearTransform) Rotations() []int {
	out := make([]int, 0, len(lt.Diags))
	for d := range lt.Diags {
		if d != 0 {
			out = append(out, d)
		}
	}
	return out
}

// EvalLinearTransform applies the transform, Σ_d diag_d ⊙ rot(ct, d),
// followed by a rescale. The evaluator must hold the rotation keys returned
// by Rotations(), and enc must belong to the evaluator's context.
//
// The evaluation is double-hoisted: ct.A is decomposed once (ModUp), and
// each diagonal's keyswitch inner product is multiplied by the diagonal's
// cached plaintext and accumulated over Q·P in the NTT domain, so the
// inverse transforms and the ModDown run once per transform instead of once
// per diagonal. The B terms, φ_d(B) and diagonal 0's B and A, enter the Q
// half of the same accumulators pre-multiplied by P, which the ModDown
// divides out exactly.
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
	if len(pts.steps) > 0 && ev.eks == nil {
		return nil, fmt.Errorf("ckks: rotation keys missing")
	}
	for _, step := range pts.steps {
		if _, ok := ev.eks.Rot[ctx.RQ.GaloisElementForRotation(step)]; !ok {
			return nil, fmt.Errorf("ckks: rotation key for step %d missing", step)
		}
	}
	rq, rp := ctx.RQ, ctx.RP
	levelP := rp.MaxLevel()

	acc0Q, acc1Q := rq.BorrowZero(level), rq.BorrowZero(level)
	acc0P, acc1P := rp.BorrowZero(levelP), rp.BorrowZero(levelP)
	bP := rq.Borrow(level)
	ev.nttTimesP(level, ct.B, bP)
	if pts.zero != nil {
		aP := rq.Borrow(level)
		ev.nttTimesP(level, ct.A, aP)
		rq.MulCoeffsAndAdd(level, bP, pts.zero, acc0Q)
		rq.MulCoeffsAndAdd(level, aP, pts.zero, acc1Q)
		rq.Release(aP)
	}
	if len(pts.steps) > 0 {
		dec := ev.DecomposeOnce(level, ct.A)
		groups := len(dec.DQ)
		ksBQ, ksAQ, rot := rq.Borrow(level), rq.Borrow(level), rq.Borrow(level)
		ksBP, ksAP := rp.Borrow(levelP), rp.Borrow(levelP)
		for i, step := range pts.steps {
			k := rq.GaloisElementForRotation(step)
			key := ev.eks.Rot[k]
			rq.KSAccumulate(level, dec.DQ, key.BQ[:groups], key.AQ[:groups], k, true, ksBQ, ksAQ)
			rp.KSAccumulate(levelP, dec.DP, key.BP[:groups], key.AP[:groups], k, true, ksBP, ksAP)
			rq.AutomorphismNTT(level, bP, k, rot)
			rq.Add(level, ksBQ, rot, ksBQ)
			rq.MulCoeffsAndAdd(level, ksBQ, pts.q[i], acc0Q)
			rq.MulCoeffsAndAdd(level, ksAQ, pts.q[i], acc1Q)
			rp.MulCoeffsAndAdd(levelP, ksBP, pts.p[i], acc0P)
			rp.MulCoeffsAndAdd(levelP, ksAP, pts.p[i], acc1P)
		}
		rq.Release(ksBQ)
		rq.Release(ksAQ)
		rq.Release(rot)
		rp.Release(ksBP)
		rp.Release(ksAP)
		ev.ReleaseDecomposition(dec)
	}
	rq.Release(bP)

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
