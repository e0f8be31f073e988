package ckks

import (
	"fmt"
	"math"
	"math/cmplx"

	"alchemist/internal/ring"
)

// Encoder maps vectors of N/2 complex slots to ring elements through the
// canonical embedding: slot k corresponds to evaluation of the message
// polynomial at ζ^(5^k mod 2N), ζ = exp(iπ/N).
type Encoder struct {
	ctx      *Context
	n        int          // slots = N/2
	m        int          // 2N
	roots    []complex128 // roots[k] = exp(2πi k / 2N), k ∈ [0, 2N)
	rotGroup []int        // 5^j mod 2N
}

// NewEncoder builds an encoder for the context.
func NewEncoder(ctx *Context) *Encoder {
	n := ctx.Params.Slots()
	m := 4 * n // 2N
	e := &Encoder{ctx: ctx, n: n, m: m}
	e.roots = make([]complex128, m+1)
	for k := 0; k <= m; k++ {
		angle := 2 * math.Pi * float64(k) / float64(m)
		e.roots[k] = cmplx.Rect(1, angle)
	}
	e.rotGroup = make([]int, n)
	fivePow := 1
	for j := 0; j < n; j++ {
		e.rotGroup[j] = fivePow
		fivePow = fivePow * 5 % m
	}
	return e
}

// Encode packs values (≤ N/2 complex slots, zero-padded) into a fresh
// coefficient-domain polynomial at the given level and scale.
func (e *Encoder) Encode(values []complex128, level int, scale float64) (*ring.Poly, error) {
	p := e.ctx.RQ.NewPoly(level)
	if err := e.encodeInto(values, scale, level, p, nil); err != nil {
		return nil, err
	}
	return p, nil
}

// encodeInto runs the inverse embedding and one rounding pass, writing each
// rounded coefficient into pQ (levels 0..level over Q) and, when pP is not
// nil, the same integer into every limb of pP over P — so the two halves
// are one plaintext over Q·P.
func (e *Encoder) encodeInto(values []complex128, scale float64, level int, pQ, pP *ring.Poly) error {
	if len(values) > e.n {
		return fmt.Errorf("ckks: %d values exceed %d slots", len(values), e.n)
	}
	w := make([]complex128, e.n)
	copy(w, values)
	e.specialIFFT(w)
	rq, rp := e.ctx.RQ, e.ctx.RP
	for j := 0; j < e.n; j++ {
		re, im := math.Round(real(w[j])*scale), math.Round(imag(w[j])*scale)
		setCoeff(rq, pQ, j, re, level)
		setCoeff(rq, pQ, j+e.n, im, level)
		if pP != nil {
			setCoeff(rp, pP, j, re, rp.MaxLevel())
			setCoeff(rp, pP, j+e.n, im, rp.MaxLevel())
		}
	}
	return nil
}

// Decode reads slots back from a coefficient-domain polynomial. The
// coefficients are CRT-reconstructed across levels 0..level, so ones larger
// than q_0 (e.g. after a multiplication, before rescaling) decode correctly.
func (e *Encoder) Decode(p *ring.Poly, level int, scale float64) []complex128 {
	coeffs := make([]float64, 2*e.n)
	e.ctx.RQ.CRT(level).Float64s(p, coeffs)
	w := make([]complex128, e.n)
	for j := range w {
		w[j] = complex(coeffs[j]/scale, coeffs[j+e.n]/scale)
	}
	e.specialFFT(w)
	return w
}

// setCoeff writes the signed value v into coefficient j of p across levels
// 0..level of r.
func setCoeff(r *ring.Ring, p *ring.Poly, j int, v float64, level int) {
	neg := v < 0
	abs := uint64(math.Abs(v))
	for i := 0; i <= level; i++ {
		q := r.Moduli[i]
		res := r.SubRings[i].ReduceWord(abs)
		if neg && res != 0 {
			res = q - res
		}
		p.Coeffs[i][j] = res
	}
}

// specialFFT evaluates the half-DFT used for decoding:
// out[k] = Σ_j w[j] · ζ^(j · 5^k mod 2N). In-place, O(n log n).
func (e *Encoder) specialFFT(vals []complex128) {
	n := len(vals)
	bitReverseComplex(vals)
	for length := 2; length <= n; length <<= 1 {
		lenh := length >> 1
		lenq := length << 2
		gap := e.m / lenq
		for i := 0; i < n; i += length {
			for j := 0; j < lenh; j++ {
				idx := (e.rotGroup[j] % lenq) * gap
				u := vals[i+j]
				v := vals[i+j+lenh] * e.roots[idx]
				vals[i+j] = u + v
				vals[i+j+lenh] = u - v
			}
		}
	}
}

// specialIFFT inverts specialFFT (encoding direction).
func (e *Encoder) specialIFFT(vals []complex128) {
	n := len(vals)
	for length := n; length >= 2; length >>= 1 {
		lenh := length >> 1
		lenq := length << 2
		gap := e.m / lenq
		for i := 0; i < n; i += length {
			for j := 0; j < lenh; j++ {
				idx := (lenq - (e.rotGroup[j] % lenq)) * gap
				u := vals[i+j] + vals[i+j+lenh]
				v := (vals[i+j] - vals[i+j+lenh]) * e.roots[idx]
				vals[i+j] = u
				vals[i+j+lenh] = v
			}
		}
	}
	bitReverseComplex(vals)
	inv := complex(1/float64(n), 0)
	for i := range vals {
		vals[i] *= inv
	}
}

func bitReverseComplex(v []complex128) {
	n := len(v)
	bits := 0
	for 1<<bits < n {
		bits++
	}
	for i := 0; i < n; i++ {
		j := 0
		x := i
		for b := 0; b < bits; b++ {
			j = j<<1 | (x & 1)
			x >>= 1
		}
		if i < j {
			v[i], v[j] = v[j], v[i]
		}
	}
}
