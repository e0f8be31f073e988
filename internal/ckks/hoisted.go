package ckks

import (
	"fmt"

	"alchemist/internal/rlwe"
)

// Hoisted rotations over the shared RLWE keyswitch core (internal/rlwe),
// whose DecomposeOnce, KeySwitchFused and ApplyGaloisHoisted the evaluator
// embeds. The hoisted rotations decompose BEFORE permuting where the
// textbook path permutes before decomposing; both are valid keyswitch
// inputs with the same noise bound, and the rotation tests compare them to
// within the noise tolerance.

// RotateHoisted rotates ct by every step in steps, sharing one digit
// decomposition across all of them ("hoisting"): the expensive ModUp + NTT
// of the A polynomial runs once, and each rotation is only a permuted lazy
// accumulation against its key plus a ModDown. The automorphism commutes
// with the RNS decomposition (it is a coefficient permutation), which is
// what makes the sharing sound. This is the software counterpart of the
// BSP-L=n+ schedules in the accelerator model.
func (ev *Evaluator) RotateHoisted(ct *Ciphertext, steps []int) (map[int]*Ciphertext, error) {
	outs := make([]*Ciphertext, len(steps))
	if err := ev.RotateHoistedInto(ct, steps, outs); err != nil {
		return nil, err
	}
	m := make(map[int]*Ciphertext, len(steps))
	for i, step := range steps {
		m[step] = outs[i]
	}
	return m, nil
}

// RotateHoistedInto is the allocation-free core of RotateHoisted: outs[i]
// receives the rotation of ct by steps[i] (shells and polynomials from the
// context pools; len(outs) must equal len(steps)).
func (ev *Evaluator) RotateHoistedInto(ct *Ciphertext, steps []int, outs []*Ciphertext) error {
	d := ev.DecomposeOnce(ct.Level, ct.A)
	err := ev.RotateHoistedWith(ct, d, steps, outs)
	ev.ReleaseDecomposition(d)
	return err
}

// RotateHoistedWith applies the rotations against a caller-held
// decomposition of ct.A, allowing the same decomposition to be shared across
// multiple batches. Safe for concurrent use with a shared read-only d.
func (ev *Evaluator) RotateHoistedWith(ct *Ciphertext, d *rlwe.Decomposition, steps []int, outs []*Ciphertext) error {
	if ev.eks == nil {
		return fmt.Errorf("ckks: rotation keys missing")
	}
	if len(outs) != len(steps) {
		return fmt.Errorf("ckks: %d outputs for %d steps", len(outs), len(steps))
	}
	ctx := ev.ctx
	rq := ctx.RQ

	// Resolve every rotation key first, so no arena state is held across an
	// error return. (The work loop re-resolves instead of caching into a
	// slice: the Galois element is a few shifts and the map hit is cheap,
	// and the steady state stays allocation-free.)
	for _, step := range steps {
		if _, ok := ev.eks.Rot[rq.GaloisElementForRotation(step)]; !ok {
			return fmt.Errorf("ckks: rotation key for step %d missing", step)
		}
	}

	for si, step := range steps {
		k := rq.GaloisElementForRotation(step)
		b, a := ev.ApplyGaloisHoisted(d, ct.B, k, ev.eks.Rot[k])
		outs[si] = ctx.wrapCt(b, a, ct.Level, ct.Scale)
	}
	return nil
}
