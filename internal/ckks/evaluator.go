package ckks

import (
	"fmt"

	"alchemist/internal/prng"
	"alchemist/internal/ring"
)

// Ciphertext is a degree-1 CKKS ciphertext (B, A) over Q with decryption
// B + A·s. Both polynomials are kept in the coefficient domain.
type Ciphertext struct {
	B, A  *ring.Poly
	Level int
	Scale float64
}

// CopyCt returns a deep copy.
func (ctx *Context) CopyCt(ct *Ciphertext) *Ciphertext {
	return &Ciphertext{
		B:     ctx.RQ.Clone(ct.Level, ct.B),
		A:     ctx.RQ.Clone(ct.Level, ct.A),
		Level: ct.Level,
		Scale: ct.Scale,
	}
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
	ctx *Context
	pk  *PublicKey
	rng prng.Source
}

// NewEncryptor returns an encryptor with deterministic randomness.
func NewEncryptor(ctx *Context, pk *PublicKey, seed int64) *Encryptor {
	return &Encryptor{ctx: ctx, pk: pk, rng: prng.New(seed)}
}

// Encrypt encrypts the coefficient-domain plaintext pt at its level:
// (B, A) = (u·pk.B + e0 + pt, u·pk.A + e1).
func (e *Encryptor) Encrypt(pt *ring.Poly, level int, scale float64) *Ciphertext {
	ctx := e.ctx
	n := ctx.Params.N()
	kg := &KeyGenerator{ctx: ctx, rng: e.rng}
	u := setSigned(ctx.RQ, level, kg.signedTernary(n, 2.0/3.0))
	e0 := setSigned(ctx.RQ, level, kg.signedGaussian(n, ctx.Params.Sigma))
	e1 := setSigned(ctx.RQ, level, kg.signedGaussian(n, ctx.Params.Sigma))

	b := ctx.RQ.NewPoly(level)
	a := ctx.RQ.NewPoly(level)
	ctx.RQ.MulPoly(level, e.pk.B, u, b)
	ctx.RQ.MulPoly(level, e.pk.A, u, a)
	ctx.RQ.Add(level, b, e0, b)
	ctx.RQ.Add(level, b, pt, b)
	ctx.RQ.Add(level, a, e1, a)
	return &Ciphertext{B: b, A: a, Level: level, Scale: scale}
}

// Decryptor decrypts ciphertexts with the secret key.
type Decryptor struct {
	ctx *Context
	sk  *SecretKey
}

// NewDecryptor returns a decryptor.
func NewDecryptor(ctx *Context, sk *SecretKey) *Decryptor {
	return &Decryptor{ctx: ctx, sk: sk}
}

// DecryptPoly returns the plaintext polynomial B + A·s at ct's level.
func (d *Decryptor) DecryptPoly(ct *Ciphertext) *ring.Poly {
	ctx := d.ctx
	out := ctx.RQ.NewPoly(ct.Level)
	ctx.RQ.MulPoly(ct.Level, ct.A, d.sk.Q, out)
	ctx.RQ.Add(ct.Level, out, ct.B, out)
	return out
}

// Evaluator performs homomorphic operations using an evaluation key set.
type Evaluator struct {
	ctx *Context
	eks *EvaluationKeySet
}

// NewEvaluator returns an evaluator. eks may be nil for key-free operations
// (Add, MulPlain, Rescale).
func NewEvaluator(ctx *Context, eks *EvaluationKeySet) *Evaluator {
	return &Evaluator{ctx: ctx, eks: eks}
}

func (ev *Evaluator) alignLevels(a, b *Ciphertext) int {
	if a.Level < b.Level {
		return a.Level
	}
	return b.Level
}

// Add returns a + b (equal scales required).
func (ev *Evaluator) Add(a, b *Ciphertext) (*Ciphertext, error) {
	if err := sameScale(a, b); err != nil {
		return nil, err
	}
	level := ev.alignLevels(a, b)
	out := &Ciphertext{
		B:     ev.ctx.RQ.NewPoly(level),
		A:     ev.ctx.RQ.NewPoly(level),
		Level: level,
		Scale: a.Scale,
	}
	ev.ctx.RQ.Add(level, a.B, b.B, out.B)
	ev.ctx.RQ.Add(level, a.A, b.A, out.A)
	return out, nil
}

// Sub returns a - b (equal scales required).
func (ev *Evaluator) Sub(a, b *Ciphertext) (*Ciphertext, error) {
	if err := sameScale(a, b); err != nil {
		return nil, err
	}
	level := ev.alignLevels(a, b)
	out := &Ciphertext{
		B:     ev.ctx.RQ.NewPoly(level),
		A:     ev.ctx.RQ.NewPoly(level),
		Level: level,
		Scale: a.Scale,
	}
	ev.ctx.RQ.Sub(level, a.B, b.B, out.B)
	ev.ctx.RQ.Sub(level, a.A, b.A, out.A)
	return out, nil
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
// product of the two scales; the caller typically rescales afterwards. pt is
// transformed once and shared by both components.
func (ev *Evaluator) MulPlain(ct *Ciphertext, pt *ring.Poly, ptScale float64) *Ciphertext {
	rq := ev.ctx.RQ
	level := ct.Level
	ptN := rq.Borrow(level)
	rq.CopyLevel(level, pt, ptN)
	rq.NTT(level, ptN)
	out := ev.ctx.borrowCt(level, ct.Scale*ptScale)
	rq.CopyLevel(level, ct.B, out.B)
	rq.CopyLevel(level, ct.A, out.A)
	rq.NTT(level, out.B)
	rq.NTT(level, out.A)
	rq.MulCoeffs(level, out.B, ptN, out.B)
	rq.MulCoeffs(level, out.A, ptN, out.A)
	rq.INTT(level, out.B)
	rq.INTT(level, out.A)
	rq.Release(ptN)
	return out //alchemist:owns the product ciphertext is the caller's to Recycle
}

// MulRelin returns a ⊙ b with relinearization (the paper's Cmult, before
// rescaling).
func (ev *Evaluator) MulRelin(a, b *Ciphertext) (*Ciphertext, error) {
	if ev.eks == nil || ev.eks.Rlk == nil {
		return nil, fmt.Errorf("ckks: relinearization key missing")
	}
	ctx := ev.ctx
	level := ev.alignLevels(a, b)
	rq := ctx.RQ

	// Tensor in the NTT domain. All scratch comes from the ring arena; the
	// tensor outputs d0/d1 become the result ciphertext's polynomials.
	b1 := rq.Borrow(level)
	a1 := rq.Borrow(level)
	b2 := rq.Borrow(level)
	a2 := rq.Borrow(level)
	rq.CopyLevel(level, a.B, b1)
	rq.CopyLevel(level, a.A, a1)
	rq.CopyLevel(level, b.B, b2)
	rq.CopyLevel(level, b.A, a2)
	rq.NTT(level, b1)
	rq.NTT(level, a1)
	rq.NTT(level, b2)
	rq.NTT(level, a2)

	out := ctx.borrowCt(level, a.Scale*b.Scale)
	d0, d1 := out.B, out.A
	d2 := rq.Borrow(level)
	rq.MulCoeffs(level, b1, b2, d0)
	rq.MulCoeffs(level, b1, a2, d1)
	rq.MulCoeffsAndAdd(level, a1, b2, d1)
	rq.MulCoeffs(level, a1, a2, d2)
	rq.Release(b1)
	rq.Release(a1)
	rq.Release(b2)
	rq.Release(a2)
	rq.INTT(level, d0)
	rq.INTT(level, d1)
	rq.INTT(level, d2)

	ksB, ksA := ev.KeySwitchFused(level, d2, ev.eks.Rlk)
	rq.Release(d2)
	rq.Add(level, d0, ksB, d0)
	rq.Add(level, d1, ksA, d1)
	rq.Release(ksB)
	rq.Release(ksA)
	return out, nil //alchemist:owns the product ciphertext is the caller's to Recycle
}

// DropLevel returns ct restricted to the given (lower) level, leaving the
// scale untouched.
func (ev *Evaluator) DropLevel(ct *Ciphertext, level int) (*Ciphertext, error) {
	if level > ct.Level || level < 0 {
		return nil, fmt.Errorf("ckks: cannot drop from level %d to %d", ct.Level, level)
	}
	out := &Ciphertext{
		B:     ev.ctx.RQ.Clone(level, ct.B),
		A:     ev.ctx.RQ.Clone(level, ct.A),
		Level: level,
		Scale: ct.Scale,
	}
	return out, nil
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
	ctx := ev.ctx
	level := ct.Level
	d := ev.DecomposeOnce(level, ct.A)
	bp := ctx.RQ.Borrow(level)
	outA := ctx.RQ.Borrow(level)
	ev.keySwitchHoisted(d, key, k, true, bp, outA)
	ev.ReleaseDecomposition(d)
	rot := ctx.RQ.Borrow(level)
	ctx.RQ.Automorphism(level, ct.B, k, rot)
	ctx.RQ.Add(level, bp, rot, bp)
	ctx.RQ.Release(rot)
	return ctx.wrapCt(bp, outA, level, ct.Scale), nil //alchemist:owns the rotated ciphertext wraps bp/outA; Recycle releases them
}

// KeySwitch applies the hybrid key switch to the coefficient-domain
// polynomial c at the given level, returning (B, A) over Q such that
// B + A·s ≈ c·s'. This is the paper's Keyswitch primitive: per digit group a
// ModUp (Bconv), the DecompPolyMult accumulation against the evk, and a
// final ModDown. The returned polynomials come from the ring arena; callers
// that are done with them may hand them back via RQ.Release (the evaluator's
// own call sites do), and callers that keep them simply let the GC take over.
//
//alchemist:hot
func (ev *Evaluator) KeySwitch(level int, c *ring.Poly, swk *SwitchingKey) (*ring.Poly, *ring.Poly) {
	ctx := ev.ctx
	rq, rp := ctx.RQ, ctx.RP
	levelP := rp.MaxLevel()
	groups := ctx.GroupsAtLevel(level)

	accBQ := rq.BorrowZero(level) // NTT domain accumulators
	accAQ := rq.BorrowZero(level)
	accBP := rp.BorrowZero(levelP)
	accAP := rp.BorrowZero(levelP)

	dQ := rq.Borrow(level)
	dP := rp.Borrow(levelP)

	for g := 0; g < groups; g++ {
		lo, hi := ctx.GroupRange(g)
		if hi > level+1 {
			hi = level + 1
		}
		digits := c.Coeffs[lo:hi] // residues of digit group g (coeff domain)
		srcLevel := hi - lo - 1

		// ModUp: extend the digit to the full Q_level ∪ P basis. The
		// conversion is exact on the group's own channels (the overshoot
		// u·D_g vanishes mod q_i | D_g), so converting everywhere is safe.
		ctx.groupToQ[g].ConvertN(srcLevel, digits, dQ.Coeffs, level+1)
		ctx.groupToP[g].Convert(srcLevel, digits, dP.Coeffs)

		rq.NTT(level, dQ)
		rp.NTT(levelP, dP)

		// DecompPolyMult: accumulate digit ⊙ evk_g.
		rq.MulCoeffsAndAdd(level, dQ, swk.BQ[g], accBQ)
		rq.MulCoeffsAndAdd(level, dQ, swk.AQ[g], accAQ)
		rp.MulCoeffsAndAdd(levelP, dP, swk.BP[g], accBP)
		rp.MulCoeffsAndAdd(levelP, dP, swk.AP[g], accAP)
	}

	rq.INTT(level, accBQ)
	rq.INTT(level, accAQ)
	rp.INTT(levelP, accBP)
	rp.INTT(levelP, accAP)

	outB := rq.Borrow(level)
	outA := rq.Borrow(level)
	// Eager end to end: the reference path keeps the reduction-per-term
	// ModDown so the fused-vs-eager comparison measures the whole lazy
	// pipeline (byte-identical results either way).
	ctx.Ext.ModDownEager(level, accBQ, accBP, outB)
	ctx.Ext.ModDownEager(level, accAQ, accAP, outA)
	rq.Release(accBQ)
	rq.Release(accAQ)
	rp.Release(accBP)
	rp.Release(accAP)
	rq.Release(dQ)
	rp.Release(dP)
	return outB, outA //alchemist:owns the keyswitch halves are the caller's to release
}
