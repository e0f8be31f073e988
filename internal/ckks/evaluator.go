package ckks

import (
	"fmt"
	"math"

	"alchemist/internal/prng"
	"alchemist/internal/ring"
	"alchemist/internal/rlwe"
)

// Ciphertext is a CKKS ciphertext: the shared RLWE ciphertext (B, A) at a
// level, decrypting to B + A·s, and the scale its slots are encoded at.
type Ciphertext struct {
	rlwe.Ciphertext
	Scale float64
}

// MarshalBinary encodes the ciphertext in the shared RLWE wire format with
// the scale's float64 bits as its one metadata word.
func (ct *Ciphertext) MarshalBinary() ([]byte, error) {
	return ct.Ciphertext.MarshalMeta([]uint64{math.Float64bits(ct.Scale)})
}

// UnmarshalBinary decodes into ct, rejecting a non-positive or non-finite
// scale on top of the shared format's checks; ct is left untouched on error.
func (ct *Ciphertext) UnmarshalBinary(data []byte) error {
	var c rlwe.Ciphertext
	var meta [1]uint64
	if err := c.UnmarshalMeta(data, meta[:]); err != nil {
		return err
	}
	scale := math.Float64frombits(meta[0])
	if scale <= 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		return fmt.Errorf("ckks: implausible scale %v", scale)
	}
	ct.Ciphertext, ct.Scale = c, scale
	return nil
}

// CopyCt returns a deep copy.
func (ctx *Context) CopyCt(ct *Ciphertext) *Ciphertext {
	return newCt(ctx.RQ.Clone(ct.Level, ct.B), ctx.RQ.Clone(ct.Level, ct.A), ct.Level, ct.Scale)
}

// newCt wraps freshly allocated polynomials in a new Ciphertext.
func newCt(b, a *ring.Poly, level int, scale float64) *Ciphertext {
	return &Ciphertext{Ciphertext: rlwe.Ciphertext{B: b, A: a, Level: level}, Scale: scale}
}

// borrowCt assembles a ciphertext at the given level from the ring arena.
// The polynomial contents are arbitrary; every producer below overwrites
// them in full before the ciphertext escapes.
func (ctx *Context) borrowCt(level int, scale float64) *Ciphertext {
	return ctx.wrapCt(ctx.RQ.Borrow(level), ctx.RQ.Borrow(level), level, scale) //alchemist:owns Borrow wrapper: Recycle returns both polys to the arena
}

// wrapCt dresses existing polynomials in a (possibly recycled) Ciphertext
// shell.
func (ctx *Context) wrapCt(b, a *ring.Poly, level int, scale float64) *Ciphertext {
	ct, _ := ctx.ctPool.Get().(*Ciphertext)
	if ct == nil {
		ct = &Ciphertext{}
	}
	ct.B, ct.A, ct.Level, ct.Scale = b, a, level, scale
	return ct
}

// Recycle returns a ciphertext produced by this context to the arena. It is
// optional — an unrecycled ciphertext is simply collected by the GC — but a
// steady-state evaluation loop that recycles its intermediates runs
// allocation-free. The ciphertext must not be used after Recycle.
func (ctx *Context) Recycle(ct *Ciphertext) {
	if ct == nil {
		return
	}
	ctx.RQ.Release(ct.B)
	ctx.RQ.Release(ct.A)
	ct.B, ct.A = nil, nil
	ctx.ctPool.Put(ct)
}

// Encryptor encrypts plaintext polynomials under a public key.
type Encryptor struct {
	enc *rlwe.Encryptor
	ctx *Context
}

// NewEncryptor returns an encryptor with deterministic randomness, drawing
// from the distributions the key generator uses.
func NewEncryptor(ctx *Context, pk *PublicKey, seed int64) *Encryptor {
	secret, noise := rlwe.Samplers(prng.New(seed), ctx.Params.Sigma)
	return &Encryptor{enc: rlwe.NewEncryptor(ctx.Context, pk, secret, noise), ctx: ctx}
}

// Encrypt encrypts the coefficient-domain plaintext pt at the given level
// and declares its scale. The result comes from the context's arena, so a
// caller that Recycles it encrypts allocation-free.
func (e *Encryptor) Encrypt(pt *ring.Poly, level int, scale float64) *Ciphertext {
	ct := e.enc.Encrypt(pt, level)
	return e.ctx.wrapCt(ct.B, ct.A, level, scale)
}

// Decryptor decrypts ciphertexts with the secret key.
type Decryptor struct {
	dec *rlwe.Decryptor
}

// NewDecryptor returns a decryptor.
func NewDecryptor(ctx *Context, sk *SecretKey) *Decryptor {
	return &Decryptor{dec: rlwe.NewDecryptor(ctx.Context, sk)}
}

// DecryptPoly returns the plaintext polynomial B + A·s at ct's level.
func (d *Decryptor) DecryptPoly(ct *Ciphertext) *ring.Poly {
	return d.dec.DecryptPoly(&ct.Ciphertext)
}

// Evaluator performs homomorphic operations using an evaluation key set. It
// embeds the shared RLWE evaluator, whose fused keyswitch, decomposition and
// hoisted Galois apply it exposes.
type Evaluator struct {
	*rlwe.Evaluator
	ctx *Context
	eks *EvaluationKeySet
}

// NewEvaluator returns an evaluator. eks may be nil for key-free operations
// (Add, MulPlain, Rescale).
func NewEvaluator(ctx *Context, eks *EvaluationKeySet) *Evaluator {
	return &Evaluator{Evaluator: rlwe.NewEvaluator(ctx.Context), ctx: ctx, eks: eks}
}

// Add returns a + b (equal scales required).
func (ev *Evaluator) Add(a, b *Ciphertext) (*Ciphertext, error) {
	if err := sameScale(a, b); err != nil {
		return nil, err
	}
	return ev.addApprox(a, b), nil
}

// Sub returns a - b (equal scales required).
func (ev *Evaluator) Sub(a, b *Ciphertext) (*Ciphertext, error) {
	if err := sameScale(a, b); err != nil {
		return nil, err
	}
	return ev.subApprox(a, b), nil
}

// addApprox and subApprox combine ciphertexts at (possibly) different levels
// whose scales agree only up to the tiny rescaling drift of near-2^logScale
// primes; the result keeps a's scale and the mismatch is absorbed as
// approximation error.
func (ev *Evaluator) addApprox(a, b *Ciphertext) *Ciphertext {
	return &Ciphertext{Ciphertext: ev.Evaluator.Add(&a.Ciphertext, &b.Ciphertext), Scale: a.Scale}
}

func (ev *Evaluator) subApprox(a, b *Ciphertext) *Ciphertext {
	return &Ciphertext{Ciphertext: ev.Evaluator.Sub(&a.Ciphertext, &b.Ciphertext), Scale: a.Scale}
}

func sameScale(a, b *Ciphertext) error {
	ratio := a.Scale / b.Scale
	if ratio < 0.999999 || ratio > 1.000001 {
		return fmt.Errorf("ckks: scale mismatch %g vs %g", a.Scale, b.Scale)
	}
	return nil
}

// AddPlain returns ct + pt where pt is encoded at ct's scale.
func (ev *Evaluator) AddPlain(ct *Ciphertext, pt *ring.Poly) *Ciphertext {
	out := ev.ctx.CopyCt(ct)
	ev.ctx.RQ.Add(ct.Level, out.B, pt, out.B)
	return out
}

// MulPlain returns ct ⊙ pt (the paper's Pmult). The output scale is the
// product of the two scales; the caller typically rescales afterwards.
func (ev *Evaluator) MulPlain(ct *Ciphertext, pt *ring.Poly, ptScale float64) *Ciphertext {
	out := ev.Evaluator.MulPlain(&ct.Ciphertext, pt)
	return ev.ctx.wrapCt(out.B, out.A, out.Level, ct.Scale*ptScale)
}

// MulRelin returns a ⊙ b with relinearization (the paper's Cmult, before
// rescaling).
func (ev *Evaluator) MulRelin(a, b *Ciphertext) (*Ciphertext, error) {
	if ev.eks == nil || ev.eks.Rlk == nil {
		return nil, fmt.Errorf("ckks: relinearization key missing")
	}
	level := min(a.Level, b.Level)
	d0, d1 := ev.Evaluator.MulRelin(level, a.B, a.A, b.B, b.A, ev.eks.Rlk)
	return ev.ctx.wrapCt(d0, d1, level, a.Scale*b.Scale), nil
}

// DropLevel returns ct restricted to the given (lower) level, leaving the
// scale untouched.
func (ev *Evaluator) DropLevel(ct *Ciphertext, level int) (*Ciphertext, error) {
	if level > ct.Level || level < 0 {
		return nil, fmt.Errorf("ckks: cannot drop from level %d to %d", ct.Level, level)
	}
	return newCt(ev.ctx.RQ.Clone(level, ct.B), ev.ctx.RQ.Clone(level, ct.A), level, ct.Scale), nil
}

// MulConst multiplies every slot by the complex constant c, consuming one
// level (MulPlain by the constant vector + rescale).
func (ev *Evaluator) MulConst(ct *Ciphertext, c complex128, enc *Encoder) (*Ciphertext, error) {
	n := ev.ctx.Params.Slots()
	z := make([]complex128, n)
	for i := range z {
		z[i] = c
	}
	pt, err := enc.Encode(z, ct.Level, ev.ctx.Params.Scale)
	if err != nil {
		return nil, err
	}
	return ev.Rescale(ev.MulPlain(ct, pt, ev.ctx.Params.Scale))
}

// Rescale divides the ciphertext by its last modulus, dropping one level
// (the CKKS modulus-switching that keeps the scale stable).
func (ev *Evaluator) Rescale(ct *Ciphertext) (*Ciphertext, error) {
	if ct.Level == 0 {
		return nil, fmt.Errorf("ckks: no level left to rescale")
	}
	ctx := ev.ctx
	out := ctx.borrowCt(ct.Level-1, ct.Scale/float64(ctx.Params.Q[ct.Level]))
	ctx.Ext.RescaleByLastModulus(ct.Level, ct.B, out.B)
	ctx.Ext.RescaleByLastModulus(ct.Level, ct.A, out.A)
	return out, nil //alchemist:owns the rescaled ciphertext is the caller's to Recycle
}

// Rotate rotates the slot vector by r steps (the paper's Rotation).
func (ev *Evaluator) Rotate(ct *Ciphertext, r int) (*Ciphertext, error) {
	k := ev.ctx.RQ.GaloisElementForRotation(r)
	if ev.eks == nil {
		return nil, fmt.Errorf("ckks: rotation key for step %d missing", r)
	}
	key, ok := ev.eks.Rot[k]
	if !ok {
		return nil, fmt.Errorf("ckks: rotation key for step %d missing", r)
	}
	return ev.applyGalois(ct, k, key)
}

// Conjugate applies complex conjugation to the slots.
func (ev *Evaluator) Conjugate(ct *Ciphertext) (*Ciphertext, error) {
	if ev.eks == nil || ev.eks.Conj == nil {
		return nil, fmt.Errorf("ckks: conjugation key missing")
	}
	return ev.applyGalois(ct, ev.ctx.RQ.GaloisElementConjugate(), ev.eks.Conj)
}

// applyGalois rotates via the hoisted path: decompose ct.A once, then run
// the permutation-fused lazy keyswitch. Decomposing before permuting is
// sound because the automorphism commutes with the RNS digit split; the
// rotation tests pin the result against the plaintext rotation.
func (ev *Evaluator) applyGalois(ct *Ciphertext, k uint64, key *SwitchingKey) (*Ciphertext, error) {
	b, a := ev.ApplyGalois(ct.Level, ct.B, ct.A, k, key)
	return ev.ctx.wrapCt(b, a, ct.Level, ct.Scale), nil
}
