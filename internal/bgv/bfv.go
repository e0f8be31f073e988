package bgv

import (
	"fmt"
	"math/big"

	"alchemist/internal/ring"
	"alchemist/internal/rlwe"
)

// BFV — the scale-invariant arithmetic scheme the paper names alongside
// CKKS — shares this package's substrate: the same parameters, rings, keys
// and hybrid key switch. Messages live in the HIGH bits (Δ·m with
// Δ = ⌊Q/t⌋) instead of BGV's low bits, so multiplication needs the
// ⌈(t/Q)·c1⊗c2⌋ scale-and-round. This implementation performs that tensor
// exactly over big integers — a reference path that is bit-exact and fast
// enough at test scale (the RNS-HPS fast path is engineering, not
// semantics, and the accelerator-side costs are identical to BGV's).

// BFVCiphertext is a degree-1 BFV ciphertext (decryption ⌈(t/Q)(B+A·s)⌋).
// It is the shared RLWE ciphertext under its own type, so BGV and BFV
// operands cannot be mixed up.
type BFVCiphertext rlwe.Ciphertext

// rlweCt views a BFV ciphertext as the shared type the core operates on.
func rlweCt(ct *BFVCiphertext) *rlwe.Ciphertext { return (*rlwe.Ciphertext)(ct) }

// Delta returns Δ = ⌊Q_level / t⌋.
func (c *Context) Delta(level int) *big.Int {
	return new(big.Int).Div(c.RQ.Modulus(level), new(big.Int).SetUint64(c.Params.T))
}

// EncodeBFV packs slots and scales them by Δ (the BFV plaintext embedding).
func (e *Encoder) EncodeBFV(slots []uint64, level int) (*ring.Poly, error) {
	pt, err := e.Encode(slots, level)
	if err != nil {
		return nil, err
	}
	out := e.ctx.RQ.NewPoly(level)
	e.ctx.RQ.MulScalarBig(level, pt, e.ctx.Delta(level), out)
	return out, nil
}

// EncryptBFV encrypts a Δ-scaled plaintext under the (shared) public key.
func (e *Encryptor) EncryptBFV(pt *ring.Poly, level int) *BFVCiphertext {
	return (*BFVCiphertext)(e.Encrypt(pt, level))
}

// DecryptBFV recovers the slots: per coefficient, ⌈t·(B+A·s)/Q⌋ mod t.
func (d *Decryptor) DecryptBFV(enc *Encoder, ct *BFVCiphertext) []uint64 {
	ctx := d.ctx
	x := d.DecryptPoly(rlweCt(ct))

	q := ctx.RQ.Modulus(ct.Level)
	t := new(big.Int).SetUint64(ctx.Params.T)
	half := new(big.Int).Rsh(q, 1)
	coeffs := make([]uint64, ctx.Params.N())
	big2 := new(big.Int)
	for j, c := range ctx.RQ.PolyToBigCoeffs(ct.Level, x) {
		if c.Cmp(half) > 0 {
			c.Sub(c, q)
		}
		// round(t·c / Q) mod t.
		big2.Mul(c, t)
		rounded := roundDiv(big2, q)
		rounded.Mod(rounded, t)
		if rounded.Sign() < 0 {
			rounded.Add(rounded, t)
		}
		coeffs[j] = rounded.Uint64()
	}
	ctx.RT.NTTLazy(coeffs)
	return coeffs
}

// roundDiv returns round(a/b) for b > 0 (ties away from zero).
func roundDiv(a, b *big.Int) *big.Int {
	two := big.NewInt(2)
	halfB := new(big.Int).Div(b, two)
	out := new(big.Int)
	if a.Sign() >= 0 {
		out.Add(a, halfB)
	} else {
		out.Sub(a, halfB)
	}
	return out.Quo(out, b)
}

// AddBFV returns a + b.
func (ev *Evaluator) AddBFV(a, b *BFVCiphertext) *BFVCiphertext {
	out := BFVCiphertext(ev.Evaluator.Add(rlweCt(a), rlweCt(b)))
	return &out
}

// MulPlainBFV multiplies by an UNSCALED plaintext (Encoder.Encode, not
// EncodeBFV): Δm1·m2 stays Δ-scaled. The result's polynomials come from the
// ring arena.
func (ev *Evaluator) MulPlainBFV(ct *BFVCiphertext, pt *ring.Poly) *BFVCiphertext {
	out := BFVCiphertext(ev.Evaluator.MulPlain(rlweCt(ct), pt))
	return &out
}

// MulBFV multiplies two BFV ciphertexts: the exact big-integer tensor,
// the ⌈(t/Q)·⌋ scale-and-round, then relinearization with the shared
// hybrid key switch.
func (ev *Evaluator) MulBFV(a, b *BFVCiphertext) (*BFVCiphertext, error) {
	if ev.rlk == nil {
		return nil, fmt.Errorf("bgv: relinearization key missing")
	}
	ctx := ev.ctx
	level := min(a.Level, b.Level)
	q := ctx.RQ.Modulus(level)
	t := new(big.Int).SetUint64(ctx.Params.T)

	b1 := centeredCoeffs(ctx, level, a.B, q)
	a1 := centeredCoeffs(ctx, level, a.A, q)
	b2 := centeredCoeffs(ctx, level, b.B, q)
	a2 := centeredCoeffs(ctx, level, b.A, q)

	d0 := negacyclicBig(b1, b2)
	d1 := addBig(negacyclicBig(b1, a2), negacyclicBig(a1, b2))
	d2 := negacyclicBig(a1, a2)

	scale := func(d []*big.Int) *ring.Poly {
		p := ctx.RQ.NewPoly(level)
		tmp := new(big.Int)
		for j, c := range d {
			tmp.Mul(c, t)
			d[j] = roundDiv(tmp, q)
		}
		ctx.RQ.SetBigCoeffs(level, d, p)
		return p
	}
	p0, p1, p2 := scale(d0), scale(d1), scale(d2)

	ksB, ksA := ev.KeySwitchFused(level, p2, ev.rlk)
	ctx.RQ.Add(level, p0, ksB, p0)
	ctx.RQ.Add(level, p1, ksA, p1)
	ctx.RQ.Release(ksB)
	ctx.RQ.Release(ksA)
	return &BFVCiphertext{B: p0, A: p1, Level: level}, nil
}

func centeredCoeffs(ctx *Context, level int, p *ring.Poly, q *big.Int) []*big.Int {
	half := new(big.Int).Rsh(q, 1)
	out := ctx.RQ.PolyToBigCoeffs(level, p)
	for _, c := range out {
		if c.Cmp(half) > 0 {
			c.Sub(c, q)
		}
	}
	return out
}

// negacyclicBig computes a·b mod (X^N + 1) over big integers.
func negacyclicBig(a, b []*big.Int) []*big.Int {
	n := len(a)
	out := make([]*big.Int, n)
	for i := range out {
		out[i] = new(big.Int)
	}
	tmp := new(big.Int)
	for i := 0; i < n; i++ {
		if a[i].Sign() == 0 {
			continue
		}
		for j := 0; j < n; j++ {
			if b[j].Sign() == 0 {
				continue
			}
			tmp.Mul(a[i], b[j])
			k := i + j
			if k < n {
				out[k].Add(out[k], tmp)
			} else {
				out[k-n].Sub(out[k-n], tmp)
			}
		}
	}
	return out
}

func addBig(a, b []*big.Int) []*big.Int {
	for i := range a {
		a[i].Add(a[i], b[i])
	}
	return a
}
