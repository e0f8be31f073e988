package rlwe

import (
	"encoding/binary"
	"fmt"

	"alchemist/internal/ring"
)

// Ciphertext is a degree-1 RLWE ciphertext (B, A) over Q at a level, with
// decryption B + A·s. Both polynomials are kept in the coefficient domain.
// BGV uses it as is, BFV as a distinct type over it, and CKKS embeds it next
// to its scale.
type Ciphertext struct {
	B, A  *ring.Poly
	Level int
}

// Encryptor encrypts plaintext polynomials under a public key, drawing from
// the same secret and error distributions as the scheme's KeyGenerator. It
// holds the key only in the NTT domain, so that an encryption transforms
// just its ephemeral u. Like its samplers' shared source, an Encryptor is
// not safe for concurrent use.
type Encryptor struct {
	ctx           *Context
	pkB, pkA      nttOperand
	secret, noise Sampler
	draw          []int64 // one sampler draw of N coefficients
}

// nttOperand is a fixed polynomial over Q in the NTT domain at the top
// level, with the Shoup constants of every coefficient: the form in which a
// key enters MulCoeffsShoup. Level l reads its first l+1 limbs.
type nttOperand struct {
	v, shoup *ring.Poly
}

// newNTTOperand transforms a copy of the coefficient-domain p.
func newNTTOperand(rq *ring.Ring, p *ring.Poly) nttOperand {
	level := rq.MaxLevel()
	op := nttOperand{v: rq.Clone(level, p), shoup: rq.NewPoly(level)}
	rq.NTT(level, op.v)
	rq.ShoupConstants(level, op.v, op.shoup)
	return op
}

// NewEncryptor returns an encryptor under pk. secret draws the ephemeral u,
// noise the errors, which are scaled by the context's plaintext modulus t
// (1 for CKKS). The encryptor keeps pk only in its transformed form.
func NewEncryptor(ctx *Context, pk *PublicKey, secret, noise Sampler) *Encryptor {
	return &Encryptor{
		ctx:    ctx,
		pkB:    newNTTOperand(ctx.RQ, pk.B),
		pkA:    newNTTOperand(ctx.RQ, pk.A),
		secret: secret,
		noise:  noise,
		draw:   make([]int64, ctx.Params.N()),
	}
}

// Encrypt encrypts the coefficient-domain plaintext pt at the given level:
// (B, A) = (u·pk.B + t·e0 + pt, u·pk.A + t·e1), sampling u, e0 and e1 in
// that order. u is transformed once and multiplied by both halves of the
// pre-transformed key. The returned polynomials come from the ring arena;
// the scheme wraps them in its own ciphertext.
func (e *Encryptor) Encrypt(pt *ring.Poly, level int) Ciphertext {
	rq, t := e.ctx.RQ, e.ctx.Params.T
	u := rq.Borrow(level)
	e.secret(e.draw)
	embedSigned(rq, level, e.draw, 1, u, false)
	rq.NTT(level, u)
	b, a := rq.Borrow(level), rq.Borrow(level)
	rq.MulCoeffsShoup(level, u, e.pkB.v, e.pkB.shoup, b)
	rq.MulCoeffsShoup(level, u, e.pkA.v, e.pkA.shoup, a)
	rq.Release(u)
	rq.INTT(level, b)
	rq.INTT(level, a)
	e.noise(e.draw)
	embedSigned(rq, level, e.draw, t, b, true)
	rq.Add(level, b, pt, b)
	e.noise(e.draw)
	embedSigned(rq, level, e.draw, t, a, true)
	return Ciphertext{B: b, A: a, Level: level} //alchemist:owns the ciphertext halves are the caller's to release
}

// Decryptor decrypts ciphertexts with the secret key, which it holds in the
// NTT domain. Its state is read-only, so one Decryptor serves concurrent
// callers.
type Decryptor struct {
	ctx *Context
	s   nttOperand
}

// NewDecryptor returns a decryptor under sk.
func NewDecryptor(ctx *Context, sk *SecretKey) *Decryptor {
	return &Decryptor{ctx: ctx, s: newNTTOperand(ctx.RQ, sk.Q)}
}

// DecryptPoly returns the plaintext polynomial B + A·s at ct's level; the
// scheme's decoder reads the message from it.
func (d *Decryptor) DecryptPoly(ct *Ciphertext) *ring.Poly {
	rq, level := d.ctx.RQ, ct.Level
	out := rq.Clone(level, ct.A)
	rq.NTT(level, out)
	rq.MulCoeffsShoup(level, out, d.s.v, d.s.shoup, out)
	rq.INTT(level, out)
	rq.Add(level, out, ct.B, out)
	return out
}

// Add returns a + b at the lower of the two levels.
func (ev *Evaluator) Add(a, b *Ciphertext) Ciphertext {
	rq, level := ev.ctx.RQ, min(a.Level, b.Level)
	out := Ciphertext{B: rq.NewPoly(level), A: rq.NewPoly(level), Level: level}
	rq.Add(level, a.B, b.B, out.B)
	rq.Add(level, a.A, b.A, out.A)
	return out
}

// Sub returns a - b at the lower of the two levels.
func (ev *Evaluator) Sub(a, b *Ciphertext) Ciphertext {
	rq, level := ev.ctx.RQ, min(a.Level, b.Level)
	out := Ciphertext{B: rq.NewPoly(level), A: rq.NewPoly(level), Level: level}
	rq.Sub(level, a.B, b.B, out.B)
	rq.Sub(level, a.A, b.A, out.A)
	return out
}

// MulPlain returns ct ⊙ pt (the paper's Pmult) for a coefficient-domain
// plaintext at ct's level or above. pt is transformed once and shared by
// both components. The result's polynomials come from the ring arena.
func (ev *Evaluator) MulPlain(ct *Ciphertext, pt *ring.Poly) Ciphertext {
	rq, level := ev.ctx.RQ, ct.Level
	ptN := rq.Borrow(level)
	rq.CopyLevel(level, pt, ptN)
	rq.NTT(level, ptN)
	b := rq.Borrow(level)
	a := rq.Borrow(level)
	rq.CopyLevel(level, ct.B, b)
	rq.CopyLevel(level, ct.A, a)
	rq.NTT(level, b)
	rq.NTT(level, a)
	rq.MulCoeffs(level, b, ptN, b)
	rq.MulCoeffs(level, a, ptN, a)
	rq.INTT(level, b)
	rq.INTT(level, a)
	rq.Release(ptN)
	return Ciphertext{B: b, A: a, Level: level} //alchemist:owns the product halves are the caller's to release
}

// Ciphertext wire format, shared by every scheme: uint32 level, the scheme's
// metadata words (uint64 each; CKKS stores its scale, BGV and BFV none),
// uint32 length of B, B poly bytes, A poly bytes. All integers are
// little-endian.

// MarshalBinary encodes ct with no metadata words.
func (ct *Ciphertext) MarshalBinary() ([]byte, error) { return ct.MarshalMeta(nil) }

// UnmarshalBinary decodes a ciphertext with no metadata words into ct.
func (ct *Ciphertext) UnmarshalBinary(data []byte) error { return ct.UnmarshalMeta(data, nil) }

// MarshalMeta encodes ct with the given metadata words.
func (ct *Ciphertext) MarshalMeta(meta []uint64) ([]byte, error) {
	b, err := ct.B.MarshalBinary()
	if err != nil {
		return nil, err
	}
	a, err := ct.A.MarshalBinary()
	if err != nil {
		return nil, err
	}
	head := 8 + 8*len(meta)
	out := make([]byte, head, head+len(b)+len(a))
	binary.LittleEndian.PutUint32(out, uint32(ct.Level))
	for i, m := range meta {
		binary.LittleEndian.PutUint64(out[4+8*i:], m)
	}
	binary.LittleEndian.PutUint32(out[head-4:], uint32(len(b)))
	out = append(out, b...)
	return append(out, a...), nil
}

// UnmarshalMeta decodes into ct a ciphertext carrying len(meta) metadata
// words, which it stores in meta. It rejects truncated input, a B length past
// the end, malformed polynomials, and a B, A and level that disagree in
// level or ring degree; ct is left untouched on error.
func (ct *Ciphertext) UnmarshalMeta(data []byte, meta []uint64) error {
	head := 8 + 8*len(meta)
	if len(data) < head {
		return fmt.Errorf("rlwe: ciphertext header truncated")
	}
	level := int(binary.LittleEndian.Uint32(data))
	bLen := int(binary.LittleEndian.Uint32(data[head-4:]))
	if bLen > len(data)-head {
		return fmt.Errorf("rlwe: ciphertext B length out of range")
	}
	b, a := new(ring.Poly), new(ring.Poly)
	if err := b.UnmarshalBinary(data[head : head+bLen]); err != nil {
		return err
	}
	if err := a.UnmarshalBinary(data[head+bLen:]); err != nil {
		return err
	}
	if level != b.Level() || level != a.Level() {
		return fmt.Errorf("rlwe: level %d disagrees with poly channels (%d, %d)", level, b.Level(), a.Level())
	}
	if len(b.Coeffs[0]) != len(a.Coeffs[0]) {
		return fmt.Errorf("rlwe: B has degree %d but A has %d", len(b.Coeffs[0]), len(a.Coeffs[0]))
	}
	for i := range meta {
		meta[i] = binary.LittleEndian.Uint64(data[4+8*i:])
	}
	*ct = Ciphertext{B: b, A: a, Level: level}
	return nil
}
