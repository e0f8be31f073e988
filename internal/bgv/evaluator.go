package bgv

import (
	"fmt"

	"alchemist/internal/modmath"
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
	secret, noise := samplers(prng.New(seed), ctx.Params.Sigma)
	return &Encryptor{enc: rlwe.NewEncryptor(ctx.Context, pk, secret, noise, ctx.Params.T)}
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
// evaluator, whose fused keyswitch runs through the context's t-exact
// ModDown.
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

// modDownT is the ModDown the context binds into the shared keyswitch. It
// divides an accumulator over Q·P by P with the BGV t-correction:
// the subtracted representative δ satisfies δ ≡ x (mod P) and δ ≡ 0 (mod t)
// (δ = centered([x]_P) + P·w, w ≡ -[x]_P (mod t)), so the result stays
// ≡ x (mod t) while noise only grows by ≤ t.
func (ctx *Context) modDownT(level int, aQ, aP, out *ring.Poly) {
	n := ctx.Params.N()
	t := ctx.Params.T
	// Exact centered conversion into [t, q_0..q_level]. The channel backing
	// (plus the w correction vector) comes from one scratch buffer — the
	// [t|Q] shape fits neither ring's polynomial pools — so only the small
	// header slice is allocated.
	flat := ctx.scratch.Get((level + 3) * n)
	conv := make([][]uint64, level+2)
	for i := range conv {
		conv[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	w := flat[(level+2)*n:]
	ctx.pToQT.ConvertExact(len(ctx.Params.P)-1, aP.Coeffs, conv, level+2, true)
	convT := conv[0]
	for k := 0; k < n; k++ {
		w[k] = modmath.NegMod(convT[k], t) // w ≡ -[x]_P (mod t); P ≡ 1 (mod t)
	}
	for i := 0; i <= level; i++ {
		qi := ctx.RQ.Moduli[i]
		pq := ctx.PModQ[i]
		inv := ctx.pInvQ[i]
		invS := modmath.ShoupPrecomp(inv, qi)
		src, ci, dst := aQ.Coeffs[i], conv[i+1], out.Coeffs[i]
		for k := 0; k < n; k++ {
			delta := modmath.AddMod(ci[k], modmath.MulMod(w[k], pq, qi), qi)
			d := modmath.SubMod(src[k], delta, qi)
			dst[k] = modmath.MulModShoup(d, inv, invS, qi)
		}
	}
	ctx.scratch.Put(flat)
}

// Rescale performs the BGV modulus switch: divides the ciphertext by its
// last modulus q_l (≡ 1 mod t) with a correction δ' ≡ [x]_{q_l} (mod q_l)
// and ≡ 0 (mod t), shrinking noise by ≈ q_l without touching the plaintext.
func (ev *Evaluator) Rescale(ct *Ciphertext) (*Ciphertext, error) {
	if ct.Level == 0 {
		return nil, fmt.Errorf("bgv: no level left to rescale")
	}
	ctx := ev.ctx
	level := ct.Level
	out := &Ciphertext{
		B:     ctx.RQ.NewPoly(level - 1),
		A:     ctx.RQ.NewPoly(level - 1),
		Level: level - 1,
	}
	ev.modSwitchPoly(level, ct.B, out.B)
	ev.modSwitchPoly(level, ct.A, out.A)
	return out, nil
}

func (ev *Evaluator) modSwitchPoly(level int, in, out *ring.Poly) {
	ctx := ev.ctx
	t := int64(ctx.Params.T)
	ql := ctx.RQ.Moduli[level]
	n := ctx.Params.N()
	// Per-channel inverse of q_l.
	for i := 0; i < level; i++ {
		qi := ctx.RQ.Moduli[i]
		inv := modmath.InvMod(ctx.RQ.SubRings[i].ReduceWord(ql), qi)
		invS := modmath.ShoupPrecomp(inv, qi)
		for k := 0; k < n; k++ {
			// δ' = centered([x]_{q_l}) + q_l·w with w ≡ -δ (mod t); since
			// q_l ≡ 1 (mod t), δ' ≡ 0 (mod t) and ≡ [x]_{q_l} (mod q_l).
			dc := ring.SignedCoeff(in.Coeffs[level][k], ql)
			w := (-dc) % t
			if w < 0 {
				w += t
			}
			delta := dc + int64(ql)*w // |δ'| < q_l·(t+1): fits int64 for 45-bit q_l, 17-bit t
			dmod := modmath.ReduceSigned(delta, qi)
			d := modmath.SubMod(in.Coeffs[i][k], dmod, qi)
			out.Coeffs[i][k] = modmath.MulModShoup(d, inv, invS, qi)
		}
	}
}
