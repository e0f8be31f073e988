package ckks

import (
	"math"
	"math/big"
	"sync"
	"testing"

	"alchemist/internal/modmath"
	"alchemist/internal/prng"
	"alchemist/internal/ring"
)

// oracleCentered is the decode's reference: the big-int CRT reconstruction
// of coefficient j, centered and rounded to float64 through big.Float.
func oracleCentered(r *ring.Ring, p *ring.Poly, j, level int) float64 {
	res := make([]uint64, level+1)
	for i := range res {
		res[i] = p.Coeffs[i][j]
	}
	x := modmath.CRTReconstruct(res, r.Moduli[:level+1])
	q := r.Modulus(level)
	if x.Cmp(new(big.Int).Rsh(q, 1)) > 0 {
		x.Sub(x, q)
	}
	f, _ := new(big.Float).SetInt(x).Float64()
	return f
}

// oracleDecode is Decode with every coefficient taken from oracleCentered.
func oracleDecode(e *Encoder, p *ring.Poly, level int, scale float64) []complex128 {
	w := make([]complex128, e.n)
	for j := range w {
		re := oracleCentered(e.ctx.RQ, p, j, level)
		im := oracleCentered(e.ctx.RQ, p, j+e.n, level)
		w[j] = complex(re/scale, im/scale)
	}
	e.specialFFT(w)
	return w
}

// decodeEdgePoly fills a level-`level` polynomial with the values where a
// CRT decode goes wrong first. Coefficients 0–9 hold 0, ±1, ±⌊Q/2⌋ and
// ±(⌊Q/2⌋±1); coefficient 10 has every limb at q_i − 1. The rest cycle
// through residues that are 0 or q_i − 1 in a random subset of limbs,
// signed values of random bit length up to that of Q, values a small
// distance from ±⌊Q/2⌋, and float64 rounding ties (a 54-bit odd mantissa
// at a random shift, with or without a lower sticky bit).
func decodeEdgePoly(r *ring.Ring, level int, seed int64) *ring.Poly {
	rng := prng.New(seed)
	moduli := r.Moduli[:level+1]
	q := r.Modulus(level)
	half := new(big.Int).Rsh(q, 1)
	one := big.NewInt(1)
	p := r.NewPoly(level)
	set := func(j int, x *big.Int) {
		for i, v := range modmath.CRTDecompose(x, moduli) {
			p.Coeffs[i][j] = v
		}
	}
	neg := func(x *big.Int) *big.Int { return new(big.Int).Neg(x) }
	edges := []*big.Int{
		new(big.Int), one, neg(one),
		half, neg(half),
		new(big.Int).Add(half, one), neg(new(big.Int).Add(half, one)),
		new(big.Int).Sub(half, one), neg(new(big.Int).Sub(half, one)),
		new(big.Int).Sub(q, one),
	}
	for j, x := range edges {
		set(j, x)
	}
	for i, qi := range moduli {
		p.Coeffs[i][len(edges)] = qi - 1
	}
	for j := len(edges) + 1; j < r.N; j++ {
		x := new(big.Int)
		switch rng.Intn(4) {
		case 0:
			for i, qi := range moduli {
				switch rng.Intn(3) {
				case 0:
					p.Coeffs[i][j] = 0
				case 1:
					p.Coeffs[i][j] = qi - 1
				default:
					p.Coeffs[i][j] = prng.UniformMod(rng, qi)
				}
			}
			continue
		case 1:
			for x.BitLen() < q.BitLen() {
				x.Lsh(x, 64).Or(x, new(big.Int).SetUint64(rng.Uint64()))
			}
			x.Rsh(x, uint(rng.Intn(q.BitLen())+1))
		case 2:
			x.Sub(half, big.NewInt(int64(rng.Intn(1<<20))))
		default:
			x.SetUint64(rng.Uint64()>>10 | 1<<53 | 1)
			shift := max(q.BitLen()-56, 1)
			x.Lsh(x, uint(rng.Intn(shift)+1))
			if rng.Intn(2) == 0 {
				x.Add(x, one)
			}
		}
		if x.Cmp(half) > 0 {
			x.Rsh(x, 1)
		}
		if rng.Intn(2) == 0 {
			x.Neg(x)
		}
		set(j, x)
	}
	return p
}

var decodeFixture struct {
	once sync.Once
	ctx  *Context
	enc  *Encoder
	err  error
}

func decodeContext(t testing.TB) (*Context, *Encoder) {
	t.Helper()
	decodeFixture.once.Do(func() {
		decodeFixture.ctx, decodeFixture.err = NewContext(TestParams())
		if decodeFixture.err == nil {
			decodeFixture.enc = NewEncoder(decodeFixture.ctx)
		}
	})
	if decodeFixture.err != nil {
		t.Fatal(decodeFixture.err)
	}
	return decodeFixture.ctx, decodeFixture.enc
}

// FuzzDecodeMatchesCRTOracle checks the precomputed word-wise CRT decode
// against the big-int oracle at every level of TestParams: every centered
// coefficient and every decoded slot must be the same float64, bit for bit.
func FuzzDecodeMatchesCRTOracle(f *testing.F) {
	for level := 0; level <= TestParams().MaxLevel(); level++ {
		f.Add(int64(level)+1, uint8(level))
	}
	f.Fuzz(func(t *testing.T, seed int64, lv uint8) {
		ctx, enc := decodeContext(t)
		level := int(lv) % (ctx.Params.MaxLevel() + 1)
		p := decodeEdgePoly(ctx.RQ, level, seed)
		got := make([]float64, ctx.Params.N())
		ctx.RQ.CRT(level).Float64s(p, got)
		for j, g := range got {
			if want := oracleCentered(ctx.RQ, p, j, level); math.Float64bits(g) != math.Float64bits(want) {
				t.Fatalf("level %d coeff %d: decoded %v, oracle %v", level, j, g, want)
			}
		}
		scale := ctx.Params.Scale
		dec, want := enc.Decode(p, level, scale), oracleDecode(enc, p, level, scale)
		for k := range dec {
			if math.Float64bits(real(dec[k])) != math.Float64bits(real(want[k])) ||
				math.Float64bits(imag(dec[k])) != math.Float64bits(imag(want[k])) {
				t.Fatalf("level %d slot %d: decoded %v, oracle %v", level, k, dec[k], want[k])
			}
		}
	})
}

// TestDecodeAllocsFlatInN pins Decode's allocations to a count that does not
// depend on the ring degree: the CRT constants are built with the ring, so a
// decode allocates its output, its coefficient buffer and one scratch row,
// and nothing per coefficient.
func TestDecodeAllocsFlatInN(t *testing.T) {
	var counts []float64
	for _, logN := range []int{10, 12} {
		params, err := GenParams(logN, 3, 2, 2, 55, 40, 55)
		if err != nil {
			t.Fatal(err)
		}
		ctx, err := NewContext(params)
		if err != nil {
			t.Fatal(err)
		}
		enc := NewEncoder(ctx)
		level := params.MaxLevel()
		p := decodeEdgePoly(ctx.RQ, level, 5)
		counts = append(counts, testing.AllocsPerRun(5, func() { enc.Decode(p, level, params.Scale) }))
	}
	if counts[0] != counts[1] || counts[0] > 3 {
		t.Fatalf("Decode allocations at N=2^10, 2^12: %v; want the same count, at most 3", counts)
	}
}

// BenchmarkDecode times Decode at helr-wide's shape: N=2^13, a 55-bit q0
// under eleven 40-bit chain limbs, decoded at level 10 (eleven limbs), where
// helr-wide decodes its result.
func BenchmarkDecode(b *testing.B) {
	params, err := GenParams(13, 11, 3, 4, 55, 40, 55)
	if err != nil {
		b.Fatal(err)
	}
	ctx, err := NewContext(params)
	if err != nil {
		b.Fatal(err)
	}
	enc := NewEncoder(ctx)
	level := 10
	p := decodeEdgePoly(ctx.RQ, level, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decodeSink = enc.Decode(p, level, params.Scale)
	}
}

// decodeSink keeps BenchmarkDecode's result live.
var decodeSink []complex128
