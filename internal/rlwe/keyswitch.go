package rlwe

import "alchemist/internal/ring"

// Fused lazy keyswitching and hoisted Galois automorphisms.
//
// The keyswitch is the paper's ModUp → DecompPolyMult → ModDown, structured
// around two ideas:
//
//   - Lazy accumulation: the DecompPolyMult inner products Σ_g d_g ⊙ evk_g
//     run as unreduced 128-bit sums across all digit groups with ONE deferred
//     Barrett fold per coefficient — instead of a Barrett reduction and a
//     conditional-subtract per term. The register-resident inner product
//     lives in ring.KSAccumulate (ring/ksacc.go); NewBarrett's q < 2^62
//     bound lets each 128-bit sum take ksChunk = 4 products per fold.
//   - Hoisting: the digit decomposition (ModUp + NTT) of the input runs ONCE
//     (DecomposeOnce) and is shared by any number of automorphisms; each one
//     applies its Galois permutation inside the NTT-domain multiply-
//     accumulate (KSAccumulate's gather variant), so the permuted digits are
//     never materialized and no per-step NTT remains. The decomposition
//     itself is digit-batched: one Decomposer pass converts every group to
//     both target bases, sharing the step-1 scaling (ring/decompose.go).
//
// KeySwitchFused is bit-identical to the eager per-group reference (convert,
// transform and reduce-accumulate one digit at a time), which lives with the
// tests. The hoisted automorphisms decompose BEFORE permuting where the
// textbook path permutes before decomposing; both are valid keyswitch inputs
// with the same noise bound.

// Evaluator runs the keyswitch-bound operations of a context. The scheme
// evaluators embed it; it holds no keys, so one may serve any number of
// goroutines.
type Evaluator struct {
	ctx *Context
}

// NewEvaluator returns an evaluator over ctx.
func NewEvaluator(ctx *Context) *Evaluator { return &Evaluator{ctx: ctx} }

// Decomposition is the reusable ModUp expansion of one polynomial: per digit
// group, the digit extended to the working Q basis and to the special basis
// P, both in the NTT domain. Produce with DecomposeOnce, hand back with
// ReleaseDecomposition; the polynomials come from the ring arenas and the
// shells are pooled, so the steady state allocates nothing.
type Decomposition struct {
	Level int
	DQ    []*ring.Poly
	DP    []*ring.Poly
}

// DecomposeOnce computes the digit decomposition of c (coefficient domain,
// levels 0..level) once, for reuse across many keyswitches — the "hoisting"
// half of rotate-many workloads.
func (ev *Evaluator) DecomposeOnce(level int, c *ring.Poly) *Decomposition {
	ctx := ev.ctx
	rq, rp := ctx.RQ, ctx.RP
	levelP := rp.MaxLevel()
	groups := ctx.Dec.GroupsAt(level)

	d, _ := ctx.decPool.Get().(*Decomposition)
	if d == nil {
		d = &Decomposition{
			DQ: make([]*ring.Poly, 0, len(ctx.Dec.Groups)),
			DP: make([]*ring.Poly, 0, len(ctx.Dec.Groups)),
		}
	}
	d.Level = level
	d.DQ, d.DP = d.DQ[:0], d.DP[:0]
	for g := 0; g < groups; g++ {
		d.DQ = append(d.DQ, rq.Borrow(level))  //alchemist:owns the decomposition owns its digits; ReleaseDecomposition frees them
		d.DP = append(d.DP, rp.Borrow(levelP)) //alchemist:owns the decomposition owns its digits; ReleaseDecomposition frees them
	}
	ctx.Dec.DecomposeAll(level, c, d.DQ, d.DP)
	for g := 0; g < groups; g++ {
		rq.NTT(level, d.DQ[g])
		rp.NTT(levelP, d.DP[g])
	}
	return d
}

// ReleaseDecomposition returns the decomposition's polynomials to the ring
// arenas and its shell to the context pool. d must not be used afterwards.
func (ev *Evaluator) ReleaseDecomposition(d *Decomposition) {
	if d == nil {
		return
	}
	ctx := ev.ctx
	for _, p := range d.DQ {
		ctx.RQ.Release(p)
	}
	for _, p := range d.DP {
		ctx.RP.Release(p)
	}
	d.DQ, d.DP = d.DQ[:0], d.DP[:0]
	ctx.decPool.Put(d)
}

// KeySwitchFused applies the hybrid key switch to the coefficient-domain
// polynomial c at the given level, returning (B, A) over Q such that
// B + A·s ≈ c·s': one digit-batched decomposition, unreduced 128-bit
// accumulation with a single deferred reduction per channel, and the
// ModDown. The halves come from the ring arena; the caller hands
// them back with RQ.Release or leaves them to the GC.
//
//alchemist:hot
func (ev *Evaluator) KeySwitchFused(level int, c *ring.Poly, swk *SwitchingKey) (*ring.Poly, *ring.Poly) {
	d := ev.DecomposeOnce(level, c)
	outB := ev.ctx.RQ.Borrow(level)
	outA := ev.ctx.RQ.Borrow(level)
	ev.keySwitchHoisted(d, swk, 0, false, outB, outA)
	ev.ReleaseDecomposition(d)
	return outB, outA //alchemist:owns the keyswitch halves are the caller's to release
}

// keySwitchHoisted runs the accumulation half of the keyswitch against a
// prepared decomposition: per digit group one lazy multiply-accumulate
// (optionally fused with the Galois permutation φ_k of the digits), then the
// single deferred reduction, the inverse transforms and the two ModDowns.
// outB/outA receive the coefficient-domain result over Q.
//
//alchemist:hot
//alchemist:domain outB:[0,q) outA:[0,q)
func (ev *Evaluator) keySwitchHoisted(d *Decomposition, swk *SwitchingKey, k uint64, perm bool, outB, outA *ring.Poly) {
	ctx := ev.ctx
	rq, rp := ctx.RQ, ctx.RP
	level := d.Level
	levelP := rp.MaxLevel()
	groups := ctx.Dec.GroupsAt(level)

	// KSAccumulate runs both key halves per digit load, holds the 128-bit
	// sums in registers across all groups (a Barrett fold every ksChunk = 4
	// products, safe for every q < 2^62) and writes the outputs once,
	// already folded. Bit-identical to the eager per-group inner product
	// (ring/ksacc.go).
	bq := rq.Borrow(level)
	aq := rq.Borrow(level)
	bp := rp.Borrow(levelP)
	ap := rp.Borrow(levelP)

	rq.KSAccumulate(level, d.DQ[:groups], swk.BQ[:groups], swk.AQ[:groups], k, perm, bq, aq)
	rp.KSAccumulate(levelP, d.DP[:groups], swk.BP[:groups], swk.AP[:groups], k, perm, bp, ap)

	rq.INTT(level, bq)
	rq.INTT(level, aq)
	rp.INTT(levelP, bp)
	rp.INTT(levelP, ap)

	ctx.Ext.ModDown(level, bq, bp, outB)
	ctx.Ext.ModDown(level, aq, ap, outA)

	rq.Release(bq)
	rq.Release(aq)
	rp.Release(bp)
	rp.Release(ap)
}

// ApplyGaloisHoisted applies the automorphism φ_k to the ciphertext (b, a)
// against d, a prepared decomposition of a: one permutation-fused lazy
// accumulation against the φ_k(s) → s key, then φ_k(b) added onto the B
// half. The automorphism commutes with the RNS digit split (it is a
// coefficient permutation), which is what makes sharing d sound. Safe for
// concurrent use with a shared read-only d. The result comes from the ring
// arena.
func (ev *Evaluator) ApplyGaloisHoisted(d *Decomposition, b *ring.Poly, k uint64, swk *SwitchingKey) (*ring.Poly, *ring.Poly) {
	rq := ev.ctx.RQ
	level := d.Level
	outB := rq.Borrow(level)
	outA := rq.Borrow(level)
	ev.keySwitchHoisted(d, swk, k, true, outB, outA)
	rot := rq.Borrow(level)
	rq.Automorphism(level, b, k, rot)
	rq.Add(level, outB, rot, outB)
	rq.Release(rot)
	return outB, outA //alchemist:owns the rotated halves are the caller's to release
}

// ApplyGalois applies φ_k to the ciphertext (b, a) at the given level,
// decomposing a for this one automorphism. The result comes from the ring
// arena.
func (ev *Evaluator) ApplyGalois(level int, b, a *ring.Poly, k uint64, swk *SwitchingKey) (*ring.Poly, *ring.Poly) {
	d := ev.DecomposeOnce(level, a)
	outB, outA := ev.ApplyGaloisHoisted(d, b, k, swk)
	ev.ReleaseDecomposition(d)
	return outB, outA
}

// MulRelin multiplies the ciphertexts (b1, a1) and (b2, a2) at the given
// level and relinearizes the product with rlk: the degree-2 tensor in the
// NTT domain, then its s² part keyswitched back onto s. The result comes
// from the ring arena.
func (ev *Evaluator) MulRelin(level int, b1, a1, b2, a2 *ring.Poly, rlk *SwitchingKey) (*ring.Poly, *ring.Poly) {
	rq := ev.ctx.RQ
	// Tensor in the NTT domain. All scratch comes from the ring arena; the
	// tensor outputs d0/d1 become the result.
	nb1 := rq.Borrow(level)
	na1 := rq.Borrow(level)
	nb2 := rq.Borrow(level)
	na2 := rq.Borrow(level)
	rq.CopyLevel(level, b1, nb1)
	rq.CopyLevel(level, a1, na1)
	rq.CopyLevel(level, b2, nb2)
	rq.CopyLevel(level, a2, na2)
	rq.NTT(level, nb1)
	rq.NTT(level, na1)
	rq.NTT(level, nb2)
	rq.NTT(level, na2)

	d0 := rq.Borrow(level)
	d1 := rq.Borrow(level)
	d2 := rq.Borrow(level)
	rq.MulCoeffs(level, nb1, nb2, d0)
	rq.MulCoeffs(level, nb1, na2, d1)
	rq.MulCoeffsAndAdd(level, na1, nb2, d1)
	rq.MulCoeffs(level, na1, na2, d2)
	rq.Release(nb1)
	rq.Release(na1)
	rq.Release(nb2)
	rq.Release(na2)
	rq.INTT(level, d0)
	rq.INTT(level, d1)
	rq.INTT(level, d2)

	ksB, ksA := ev.KeySwitchFused(level, d2, rlk)
	rq.Release(d2)
	rq.Add(level, d0, ksB, d0)
	rq.Add(level, d1, ksA, d1)
	rq.Release(ksB)
	rq.Release(ksA)
	return d0, d1 //alchemist:owns the product halves are the caller's to release
}
