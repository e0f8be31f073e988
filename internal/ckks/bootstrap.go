package ckks

import (
	"fmt"
	"math"

	"alchemist/internal/ring"
)

// Bootstrapping (test-scale, functional): refreshes an exhausted level-0
// ciphertext back to a high level through the standard CKKS pipeline:
//
//	ModRaise:    reinterpret the level-0 residues over the full chain;
//	             the plaintext becomes m + q0·I(X) with |I| ≤ h+2 for an
//	             h-sparse secret.
//	CoeffToSlot: homomorphically apply V^{-1} (the encoder's special
//	             inverse FFT) so the slots hold the coefficients / q0.
//	EvalMod:     evaluate sin(2πt)/(2π) via a Chebyshev approximation,
//	             removing the q0·I overflow.
//	SlotToCoeff: apply V to return to the coefficient embedding.
//
// This is the real algorithm at toy parameters (N ≈ 2^6, sparse key): the
// linear transforms are evaluated densely by their diagonals rather than by
// the factored FFT levels, which is exact but needs O(n) rotations — fine at
// test scale, and precisely the workload shape the accelerator model's
// bootstrap graphs describe at N = 2^16.

// BootstrapParams configures the bootstrapper.
type BootstrapParams struct {
	SineDegree int // Chebyshev degree of the sine approximation (odd)
	K          int // bound on the ModRaise overflow |I| (≈ sparse h + 2)
}

// DefaultBootstrapParams returns a configuration for h=4-sparse secrets.
func DefaultBootstrapParams() BootstrapParams {
	return BootstrapParams{SineDegree: 63, K: 6}
}

// Bootstrapper holds the keys and precomputations for bootstrapping.
type Bootstrapper struct {
	ctx *Context
	enc *Encoder
	ev  *Evaluator
	bp  BootstrapParams

	ltC2S *LinearTransform // V^{-1}
	ltS2C *LinearTransform // V
	cheb  []float64        // Chebyshev coefficients of sin(2πRu)/(2π)
	r     float64          // half-range R = K + 1/2
}

// NewBootstrapper builds the transforms and generates every needed key
// (rotations for both dense transforms, conjugation, relinearization).
func NewBootstrapper(ctx *Context, kg *KeyGenerator, sk *SecretKey, bp BootstrapParams) (*Bootstrapper, error) {
	if bp.SineDegree < 7 || bp.SineDegree%2 == 0 {
		return nil, fmt.Errorf("ckks: sine degree %d must be odd and ≥ 7", bp.SineDegree)
	}
	enc := NewEncoder(ctx)
	n := ctx.Params.Slots()
	v, vinv := EncodingMatrices(ctx)
	ltC2S, err := NewLinearTransformFromMatrix(vinv, n)
	if err != nil {
		return nil, err
	}
	ltS2C, err := NewLinearTransformFromMatrix(v, n)
	if err != nil {
		return nil, err
	}

	rotSet := map[int]bool{}
	for _, r := range ltC2S.Rotations() {
		rotSet[r] = true
	}
	for _, r := range ltS2C.Rotations() {
		rotSet[r] = true
	}
	rots := make([]int, 0, len(rotSet))
	for r := range rotSet {
		rots = append(rots, r)
	}
	eks := kg.GenEvaluationKeySet(sk, rots, true)

	bt := &Bootstrapper{
		ctx:   ctx,
		enc:   enc,
		ev:    NewEvaluator(ctx, eks),
		bp:    bp,
		ltC2S: ltC2S,
		ltS2C: ltS2C,
		r:     float64(bp.K) + 0.5,
	}
	bt.cheb = ChebyshevFit(func(u float64) float64 {
		return math.Sin(2*math.Pi*bt.r*u) / (2 * math.Pi)
	}, bp.SineDegree)
	return bt, nil
}

// EncodingMatrices returns the slot↔coefficient matrices V and V^{-1} of
// the canonical embedding (slots = V · packed-coefficients), built column
// by column through the encoder's special FFT network — exact by
// construction. CoeffToSlot evaluates V^{-1} homomorphically, SlotToCoeff
// evaluates V; the cross-scheme bridge reuses V.
func EncodingMatrices(ctx *Context) (v, vinv [][]complex128) {
	enc := NewEncoder(ctx)
	n := ctx.Params.Slots()
	v = make([][]complex128, n)
	vinv = make([][]complex128, n)
	for j := range v {
		v[j] = make([]complex128, n)
		vinv[j] = make([]complex128, n)
	}
	col := make([]complex128, n)
	for c := 0; c < n; c++ {
		for i := range col {
			col[i] = 0
		}
		col[c] = 1
		enc.specialFFT(col)
		for j := 0; j < n; j++ {
			v[j][c] = col[j]
		}
		for i := range col {
			col[i] = 0
		}
		col[c] = 1
		enc.specialIFFT(col)
		for j := 0; j < n; j++ {
			vinv[j][c] = col[j]
		}
	}
	return v, vinv
}

// ChebyshevFit returns the Chebyshev-series coefficients c_0..c_degree of f
// on [-1, 1] (Chebyshev–Gauss quadrature).
func ChebyshevFit(f func(float64) float64, degree int) []float64 {
	m := degree + 1
	vals := make([]float64, m)
	for i := 0; i < m; i++ {
		vals[i] = f(math.Cos(math.Pi * (float64(i) + 0.5) / float64(m)))
	}
	coeffs := make([]float64, m)
	for k := 0; k < m; k++ {
		var s float64
		for i := 0; i < m; i++ {
			s += vals[i] * math.Cos(math.Pi*float64(k)*(float64(i)+0.5)/float64(m))
		}
		coeffs[k] = 2 * s / float64(m)
	}
	coeffs[0] /= 2
	return coeffs
}

// ChebyshevEval evaluates the series at u (plaintext reference, Clenshaw).
func ChebyshevEval(coeffs []float64, u float64) float64 {
	var b1, b2 float64
	for k := len(coeffs) - 1; k >= 1; k-- {
		b1, b2 = coeffs[k]+2*u*b1-b2, b1
	}
	return coeffs[0] + u*b1 - b2
}

// constPlain encodes the constant v (all slots) at the given level & scale.
func (ev *Evaluator) constPlain(v complex128, level int, scale float64, enc *Encoder) (*ring.Poly, error) {
	n := ev.ctx.Params.Slots()
	z := make([]complex128, n)
	for i := range z {
		z[i] = v
	}
	return enc.Encode(z, level, scale)
}

// EvalChebyshev evaluates Σ coeffs[k]·T_k(u) on a ciphertext whose slots lie
// in [-1, 1], using a power tree over the Chebyshev recurrences
// (T_2a = 2T_a²-1, T_{a+b} = 2T_aT_b - T_{a-b}). Depth ⌈log2(degree)⌉ + 1.
func (ev *Evaluator) EvalChebyshev(u *Ciphertext, coeffs []float64, enc *Encoder) (*Ciphertext, error) {
	memo := map[int]*Ciphertext{1: u}
	var build func(k int) (*Ciphertext, error)
	build = func(k int) (*Ciphertext, error) {
		if ct, ok := memo[k]; ok {
			return ct, nil
		}
		var ct *Ciphertext
		if k%2 == 0 {
			half, err := build(k / 2)
			if err != nil {
				return nil, err
			}
			sq, err := ev.MulRelin(half, half)
			if err != nil {
				return nil, err
			}
			sq, err = ev.Rescale(sq)
			if err != nil {
				return nil, err
			}
			two := ev.addApprox(sq, sq) // 2T²
			one, err := ev.constPlain(1, two.Level, two.Scale, enc)
			if err != nil {
				return nil, err
			}
			ct = ev.ctx.CopyCt(two)
			ev.ctx.RQ.Sub(ct.Level, ct.B, one, ct.B) // 2T² - 1
		} else {
			a, b := (k+1)/2, k/2
			ta, err := build(a)
			if err != nil {
				return nil, err
			}
			tb, err := build(b)
			if err != nil {
				return nil, err
			}
			prod, err := ev.MulRelin(ta, tb)
			if err != nil {
				return nil, err
			}
			prod, err = ev.Rescale(prod)
			if err != nil {
				return nil, err
			}
			two := ev.addApprox(prod, prod) // 2T_aT_b
			ct = ev.subApprox(two, u)       // - T_{a-b} = -T_1
		}
		memo[k] = ct
		return ct, nil
	}

	// Build every needed T_k, find the deepest level.
	minLevel := u.Level
	for k := 1; k < len(coeffs); k++ {
		if coeffs[k] == 0 {
			continue
		}
		tk, err := build(k)
		if err != nil {
			return nil, err
		}
		if tk.Level < minLevel {
			minLevel = tk.Level
		}
	}
	// Combine: Σ c_k·T_k via one plaintext mult each, all rescaled to the
	// same target level.
	var acc *Ciphertext
	for k := 1; k < len(coeffs); k++ {
		if coeffs[k] == 0 {
			continue
		}
		tk := memo[k]
		tk, err := ev.DropLevel(tk, minLevel)
		if err != nil {
			return nil, err
		}
		pt, err := ev.constPlain(complex(coeffs[k], 0), tk.Level, ev.ctx.Params.Scale, enc)
		if err != nil {
			return nil, err
		}
		term := ev.MulPlain(tk, pt, ev.ctx.Params.Scale)
		term, err = ev.Rescale(term)
		if err != nil {
			return nil, err
		}
		if acc == nil {
			acc = term
		} else {
			acc = ev.addApprox(acc, term)
		}
	}
	if acc == nil {
		return nil, fmt.Errorf("ckks: Chebyshev series has no non-constant terms")
	}
	if coeffs[0] != 0 {
		pt, err := ev.constPlain(complex(coeffs[0], 0), acc.Level, acc.Scale, enc)
		if err != nil {
			return nil, err
		}
		acc = ev.AddPlain(acc, pt)
	}
	return acc, nil
}

// modRaise reinterprets a level-0 ciphertext over levels 0..target: each
// residue v ∈ [0, q0) is lifted to v mod q_i. The plaintext becomes
// m + q0·I(X); the returned ciphertext's Scale is declared to be q0, so its
// slots read as t = (scale·m)/q0 + I.
func (bt *Bootstrapper) modRaise(ct *Ciphertext, target int) *Ciphertext {
	ctx := bt.ctx
	out := newCt(ctx.RQ.NewPoly(target), ctx.RQ.NewPoly(target), target, float64(ctx.Params.Q[0]))
	n := ctx.Params.N()
	for j := 0; j < n; j++ {
		vb := ct.B.Coeffs[0][j]
		va := ct.A.Coeffs[0][j]
		for i := 0; i <= target; i++ {
			sub := ctx.RQ.SubRings[i]
			out.B.Coeffs[i][j] = sub.ReduceWord(vb)
			out.A.Coeffs[i][j] = sub.ReduceWord(va)
		}
	}
	return out
}

// Bootstrap refreshes a level-0 ciphertext, returning an encryption of the
// same slots at a higher level. The input must have been encrypted under an
// h-sparse secret with h + 2 ≤ bp.K.
func (bt *Bootstrapper) Bootstrap(ct *Ciphertext) (*Ciphertext, error) {
	if ct.Level != 0 {
		return nil, fmt.Errorf("ckks: bootstrap input must be at level 0, got %d", ct.Level)
	}
	ctx := bt.ctx
	ev := bt.ev
	msgScale := ct.Scale
	q0 := float64(ctx.Params.Q[0])

	raised := bt.modRaise(ct, ctx.RQ.MaxLevel())

	// CoeffToSlot: slots become w = t_lo + i·t_hi with t = coeffs/q0.
	w, err := ev.EvalLinearTransform(raised, bt.ltC2S, bt.enc)
	if err != nil {
		return nil, err
	}
	wc, err := ev.Conjugate(w)
	if err != nil {
		return nil, err
	}
	sum, err := ev.Add(w, wc) // 2·t_lo
	if err != nil {
		return nil, err
	}
	diff, err := ev.Sub(w, wc) // 2i·t_hi
	if err != nil {
		return nil, err
	}
	// Normalize into [-1, 1]: u = t / R, folding the ½ from the sums in.
	uLo, err := ev.MulConst(sum, complex(1/(2*bt.r), 0), bt.enc)
	if err != nil {
		return nil, err
	}
	uHi, err := ev.MulConst(diff, complex(0, -1/(2*bt.r)), bt.enc)
	if err != nil {
		return nil, err
	}

	// EvalMod: remove the q0·I overflow with the sine approximation.
	mLo, err := ev.EvalChebyshev(uLo, bt.cheb, bt.enc)
	if err != nil {
		return nil, err
	}
	mHi, err := ev.EvalChebyshev(uHi, bt.cheb, bt.enc)
	if err != nil {
		return nil, err
	}

	// Recombine w' = mLo + i·mHi and SlotToCoeff.
	iHi, err := ev.MulConst(mHi, complex(0, 1), bt.enc)
	if err != nil {
		return nil, err
	}
	mLo, err = ev.DropLevel(mLo, iHi.Level)
	if err != nil {
		return nil, err
	}
	out, err := ev.EvalLinearTransform(ev.addApprox(mLo, iHi), bt.ltS2C, bt.enc)
	if err != nil {
		return nil, err
	}
	// The slots now hold (msgScale/q0)·z; fold that into the scale.
	out.Scale = out.Scale * msgScale / q0
	return out, nil
}

// Evaluator returns the bootstrapper's evaluator (which holds the dense
// rotation key set) for further computation on refreshed ciphertexts.
func (bt *Bootstrapper) Evaluator() *Evaluator { return bt.ev }
