package ring

import (
	"math"
	"math/bits"

	"alchemist/internal/modmath"
)

// CRT reconstruction for the decoders. A coefficient held as residues y_i
// modulo q_0 … q_l is, by the Chinese remainder theorem,
//
//	x = Σ_i a_i·q̂_i − k·Q_l,  a_i = [y_i·q̂_i⁻¹]_{q_i},  q̂_i = Q_l/q_i,
//
// for the integer k that puts x in range. Everything but the a_i depends on
// the level alone, so each level's Q_l, ⌊Q_l/2⌋, q̂_i and [q̂_i⁻¹]_{q_i} are
// built once, with the ring, as little-endian 64-bit words. Per coefficient
// the decode then runs l+1 word-sized Shoup products, one multiword
// multiply-accumulate of the a_i against the q̂_i, and one subtraction of
// k·Q_l, with k estimated from Σ a_i/q_i in floating point and corrected
// exactly. No big integer is built and nothing is allocated per
// coefficient. The big-int modmath.CRTReconstruct is the oracle the decode
// fuzzers check it against.

// CRT holds the reconstruction constants of one level: the moduli
// q_0 … q_l of a Ring. It is immutable, so concurrent decoders share it;
// each call brings its own scratch.
type CRT struct {
	moduli []uint64
	words  int       // W: 64-bit words of Q_l
	q      []uint64  // Q_l, W words
	half   []uint64  // ⌊Q_l/2⌋, W words
	qHat   []uint64  // q̂_i = Q_l/q_i, W words per row i
	inv    []uint64  // [q̂_i⁻¹]_{q_i}
	invS   []uint64  // Shoup precomputations of inv
	recipQ []float64 // 1/q_i, for the estimate of k
}

// CRT returns the reconstruction constants of level (moduli 0..level).
func (r *Ring) CRT(level int) *CRT { return r.crt[level] }

// newCRT builds the constants of the moduli prefix q_0 … q_l.
func newCRT(moduli []uint64) *CRT {
	L := len(moduli)
	q := []uint64{1}
	for _, qi := range moduli {
		q = mulWords(q, qi)
	}
	W := len(q)
	c := &CRT{
		moduli: moduli,
		words:  W,
		q:      q,
		half:   make([]uint64, W),
		qHat:   make([]uint64, L*W),
		inv:    make([]uint64, L),
		invS:   make([]uint64, L),
		recipQ: make([]float64, L),
	}
	for w := 0; w < W; w++ {
		c.half[w] = q[w] >> 1
		if w+1 < W {
			c.half[w] |= q[w+1] << 63
		}
	}
	for i, qi := range moduli {
		hat := []uint64{1}
		hatModQi := uint64(1)
		for j, qj := range moduli {
			if j != i {
				hat = mulWords(hat, qj)
				hatModQi = modmath.MulMod(hatModQi, qj, qi)
			}
		}
		copy(c.qHat[i*W:(i+1)*W], hat)
		c.inv[i] = modmath.InvMod(hatModQi, qi)
		c.invS[i] = modmath.ShoupPrecomp(c.inv[i], qi)
		c.recipQ[i] = 1 / float64(qi)
	}
	return c
}

// mulWords returns x·m, growing x by a word when the product needs one.
func mulWords(x []uint64, m uint64) []uint64 {
	var carry uint64
	for w := range x {
		hi, lo := bits.Mul64(x[w], m)
		lo, c := bits.Add64(lo, carry, 0)
		x[w], carry = lo, hi+c
	}
	if carry != 0 {
		x = append(x, carry)
	}
	return x
}

// centered reconstructs coefficient j of p (residues at levels 0..l) as the
// centered representative x ∈ [−⌊Q_l/2⌋, ⌊Q_l/2⌋] — the value
// modmath.CRTReconstruct gives, minus Q_l when it exceeds ⌊Q_l/2⌋. It
// returns |x| as little-endian words, a prefix of mag, and whether x < 0.
// mag must hold at least W+1 words. Residues must be reduced
// (y_i < q_i).
func (c *CRT) centered(p *Poly, j int, mag []uint64) ([]uint64, bool) {
	W := c.words
	s := mag[:W+1]
	clear(s)
	var frac float64
	for i, qi := range c.moduli {
		a := modmath.MulModShoup(p.Coeffs[i][j], c.inv[i], c.invS[i], qi)
		frac += float64(a) * c.recipQ[i]
		// s += a·q̂_i. Σ a_i·q̂_i < (l+1)·Q_l, so it fits W+1 words.
		var carry uint64
		row := c.qHat[i*W : (i+1)*W]
		for w, h := range row {
			hi, lo := bits.Mul64(a, h)
			lo, c1 := bits.Add64(lo, carry, 0)
			sw, c2 := bits.Add64(s[w], lo, 0)
			s[w], carry = sw, hi+c1+c2
		}
		s[W] += carry
	}
	// frac = Σ a_i/q_i = k + x/Q_l up to a rounding error far below 1/2, so
	// rounding it gives the centered k except when x sits within that error
	// of ±Q_l/2; the exact fold below mends those.
	k := uint64(frac + 0.5)
	var carry, borrow uint64
	for w, qw := range c.q {
		hi, lo := bits.Mul64(k, qw)
		lo, c1 := bits.Add64(lo, carry, 0)
		s[w], borrow = bits.Sub64(s[w], lo, borrow)
		carry = hi + c1
	}
	s[W], borrow = bits.Sub64(s[W], carry, borrow)
	neg := borrow != 0
	if neg {
		negateWords(s)
	}
	// |s − k·Q_l| < Q_l, so the top word is clear from here on.
	m := s[:W]
	if cmpWords(m, c.half) > 0 {
		subWordsFrom(c.q, m) // m = Q_l − m
		neg = !neg
	}
	return m, neg // neg only with m ≠ 0: a borrow or a fold leaves |x| > 0
}

// Float64s writes every coefficient of p (residues at levels 0..l) to out
// as its centered value, correctly rounded to float64 — bit-identical to
// converting the centered big-int reconstruction through big.Float. out
// must hold N values.
func (c *CRT) Float64s(p *Poly, out []float64) {
	mag := make([]uint64, c.words+1)
	for j := range out {
		m, neg := c.centered(p, j, mag)
		f := wordsToFloat64(m)
		if neg {
			f = -f
		}
		out[j] = f
	}
}

// ReduceCentered writes every coefficient of p (residues at levels 0..l) to
// out as its centered value reduced modulo t: the BGV decode's coefficient,
// with t the plaintext modulus. out must hold N values. Panics unless
// 1 < t < 2^62 (modmath.NewBarrett).
func (c *CRT) ReduceCentered(p *Poly, tq uint64, out []uint64) {
	t := modmath.NewBarrett(tq)
	mag := make([]uint64, c.words+1)
	for j := range out {
		m, neg := c.centered(p, j, mag)
		var rem uint64
		for w := len(m) - 1; w >= 0; w-- {
			rem = t.Reduce(rem, m[w]) // rem < t keeps (rem, m[w]) < t·2^64
		}
		if neg && rem != 0 {
			rem = t.Q - rem
		}
		out[j] = rem
	}
}

// wordsToFloat64 rounds the little-endian integer m to the nearest float64,
// ties to even. The top 64 bits go through the hardware conversion with
// every lower bit folded into the lowest (sticky) bit, which decides ties
// the way the full integer would: the conversion drops 11 bits, so bit 0
// only ever breaks an exact half.
func wordsToFloat64(m []uint64) float64 {
	top := len(m) - 1
	for top >= 0 && m[top] == 0 {
		top--
	}
	if top <= 0 {
		if top < 0 {
			return 0
		}
		return float64(m[0])
	}
	n := bits.Len64(m[top])
	hi := m[top]<<(64-n) | m[top-1]>>n
	sticky := m[top-1]<<(64-n) != 0
	for w := top - 2; w >= 0 && !sticky; w-- {
		sticky = m[w] != 0
	}
	if sticky {
		hi |= 1
	}
	return math.Ldexp(float64(hi), 64*(top-1)+n)
}

// negateWords replaces s by its two's complement.
func negateWords(s []uint64) {
	borrow := uint64(0)
	for w := range s {
		s[w], borrow = bits.Sub64(0, s[w], borrow)
	}
}

// cmpWords compares two equal-length little-endian integers.
func cmpWords(a, b []uint64) int {
	for w := len(a) - 1; w >= 0; w-- {
		if a[w] != b[w] {
			if a[w] > b[w] {
				return 1
			}
			return -1
		}
	}
	return 0
}

// subWordsFrom sets m = a − m; requires m ≤ a, both of one length.
func subWordsFrom(a, m []uint64) {
	borrow := uint64(0)
	for w := range m {
		m[w], borrow = bits.Sub64(a[w], m[w], borrow)
	}
}
