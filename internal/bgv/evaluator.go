package bgv

import (
	"fmt"

	"alchemist/internal/prng"
	"alchemist/internal/ring"
	"alchemist/internal/rlwe"
)

// Ciphertext is a BGV ciphertext (B, A) with decryption (B + A·s) mod t:
// the shared RLWE ciphertext, wire format included.
type Ciphertext = rlwe.Ciphertext

// Encryptor encrypts under a public key.
type Encryptor struct {
	enc *rlwe.Encryptor
}

// NewEncryptor returns an encryptor with deterministic randomness, drawing
// from the distributions the key generator uses.
func NewEncryptor(ctx *Context, pk *PublicKey, seed int64) *Encryptor {
	secret, noise := rlwe.Samplers(prng.New(seed), ctx.Params.Sigma)
	return &Encryptor{enc: rlwe.NewEncryptor(ctx.Context, pk, secret, noise)}
}

// Encrypt encrypts a plaintext polynomial at the given level:
// (u·pk.B + t·e0 + m, u·pk.A + t·e1).
func (e *Encryptor) Encrypt(pt *ring.Poly, level int) *Ciphertext {
	ct := e.enc.Encrypt(pt, level)
	return &ct
}

// Decryptor decrypts with the secret key. DecryptPoly returns B + A·s at
// the ciphertext's level (reduce mod t to read the message; Encoder.Decode
// does both).
type Decryptor struct {
	*rlwe.Decryptor
	ctx *Context
}

// NewDecryptor returns a decryptor.
func NewDecryptor(ctx *Context, sk *SecretKey) *Decryptor {
	return &Decryptor{Decryptor: rlwe.NewDecryptor(ctx.Context, sk), ctx: ctx}
}

// Evaluator performs homomorphic operations. It embeds the shared RLWE
// evaluator, whose fused keyswitch ends in the core's t-scaled ModDown.
type Evaluator struct {
	*rlwe.Evaluator
	ctx *Context
	rlk *SwitchingKey
}

// NewEvaluator returns an evaluator (rlk may be nil for additions).
func NewEvaluator(ctx *Context, rlk *SwitchingKey) *Evaluator {
	return &Evaluator{Evaluator: rlwe.NewEvaluator(ctx.Context), ctx: ctx, rlk: rlk}
}

// Add returns a + b.
func (ev *Evaluator) Add(a, b *Ciphertext) *Ciphertext {
	out := ev.Evaluator.Add(a, b)
	return &out
}

// Sub returns a - b.
func (ev *Evaluator) Sub(a, b *Ciphertext) *Ciphertext {
	out := ev.Evaluator.Sub(a, b)
	return &out
}

// MulPlain returns ct ⊙ pt for a plaintext polynomial. The result's
// polynomials come from the ring arena.
func (ev *Evaluator) MulPlain(ct *Ciphertext, pt *ring.Poly) *Ciphertext {
	out := ev.Evaluator.MulPlain(ct, pt)
	return &out
}

// MulRelin returns a·b with relinearization. The product plaintext is
// m_a·m_b mod t, exactly.
func (ev *Evaluator) MulRelin(a, b *Ciphertext) (*Ciphertext, error) {
	if ev.rlk == nil {
		return nil, fmt.Errorf("bgv: relinearization key missing")
	}
	level := min(a.Level, b.Level)
	d0, d1 := ev.Evaluator.MulRelin(level, a.B, a.A, b.B, b.A, ev.rlk)
	return &Ciphertext{B: d0, A: d1, Level: level}, nil
}

// ApplyGalois applies the automorphism φ_k homomorphically: the result
// decrypts to φ_k(m) mod t, exactly. gk must be the GenGaloisKey(k, ·) key.
// The hoisted order (decompose ct.A, then permute inside the accumulation)
// never materializes φ_k(A)'s digits.
func (ev *Evaluator) ApplyGalois(ct *Ciphertext, k uint64, gk *SwitchingKey) (*Ciphertext, error) {
	if gk == nil {
		return nil, fmt.Errorf("bgv: galois key missing")
	}
	b, a := ev.Evaluator.ApplyGalois(ct.Level, ct.B, ct.A, k, gk)
	return &Ciphertext{B: b, A: a, Level: ct.Level}, nil
}

// RotateRows applies the row rotation by r steps (Galois element 5^r), the
// packed-slot permutation BGV inherits from the power-of-two cyclotomic.
func (ev *Evaluator) RotateRows(ct *Ciphertext, r int, gk *SwitchingKey) (*Ciphertext, error) {
	return ev.ApplyGalois(ct, ev.ctx.RQ.GaloisElementForRotation(r), gk)
}

// Rescale performs the BGV modulus switch: it divides the ciphertext by its
// last modulus q_l with the core's t-scaled rescale, whose subtracted
// residue is ≡ 0 (mod t). Since q_l ≡ 1 (mod t) the plaintext is untouched
// while the noise shrinks by ≈ q_l. The result's polynomials come from the
// ring arena.
func (ev *Evaluator) Rescale(ct *Ciphertext) (*Ciphertext, error) {
	if ct.Level == 0 {
		return nil, fmt.Errorf("bgv: no level left to rescale")
	}
	rq, level := ev.ctx.RQ, ct.Level-1
	b, a := rq.Borrow(level), rq.Borrow(level)
	ev.ctx.Ext.RescaleByLastModulus(ct.Level, ct.B, b)
	ev.ctx.Ext.RescaleByLastModulus(ct.Level, ct.A, a)
	return &Ciphertext{B: b, A: a, Level: level}, nil //alchemist:owns the rescaled halves are the caller's to release
}
