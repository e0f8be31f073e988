package bgv

import (
	"math/big"
	"sync"
	"testing"

	"alchemist/internal/modmath"
	"alchemist/internal/prng"
	"alchemist/internal/ring"
)

// oracleDecode is Decode with every coefficient taken from the big-int CRT
// reconstruction: centered, then reduced into [0, t).
func oracleDecode(ctx *Context, p *ring.Poly, level int) []uint64 {
	moduli := ctx.RQ.Moduli[:level+1]
	q := ctx.RQ.Modulus(level)
	half := new(big.Int).Rsh(q, 1)
	tb := new(big.Int).SetUint64(ctx.Params.T)
	coeffs := make([]uint64, ctx.Params.N())
	res := make([]uint64, level+1)
	for j := range coeffs {
		for i := range res {
			res[i] = p.Coeffs[i][j]
		}
		x := modmath.CRTReconstruct(res, moduli)
		if x.Cmp(half) > 0 {
			x.Sub(x, q)
		}
		coeffs[j] = x.Mod(x, tb).Uint64() // Mod is Euclidean: [0, t)
	}
	ctx.RT.NTTLazy(coeffs)
	return coeffs
}

// decodeEdgePoly fills a level-`level` polynomial with the values where a
// CRT decode goes wrong first. Coefficients 0–9 hold 0, ±1, ±⌊Q/2⌋ and
// ±(⌊Q/2⌋±1); coefficient 10 has every limb at q_i − 1. The rest cycle
// through residues that are 0 or q_i − 1 in a random subset of limbs,
// signed values of random bit length up to that of Q, and values a small
// distance from ±⌊Q/2⌋.
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
		switch rng.Intn(3) {
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
		default:
			x.Sub(half, big.NewInt(int64(rng.Intn(1<<20))))
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
	err  error
}

func decodeContext(t testing.TB) *Context {
	t.Helper()
	decodeFixture.once.Do(func() {
		decodeFixture.ctx, decodeFixture.err = NewContext(TestParams())
	})
	if decodeFixture.err != nil {
		t.Fatal(decodeFixture.err)
	}
	return decodeFixture.ctx
}

// FuzzDecodeMatchesCRTOracle checks the precomputed word-wise CRT decode
// against the big-int oracle at every level of TestParams: every decoded
// slot must be the same value modulo t.
func FuzzDecodeMatchesCRTOracle(f *testing.F) {
	for level := 0; level <= TestParams().MaxLevel(); level++ {
		f.Add(int64(level)+1, uint8(level))
	}
	f.Fuzz(func(t *testing.T, seed int64, lv uint8) {
		ctx := decodeContext(t)
		level := int(lv) % (ctx.Params.MaxLevel() + 1)
		p := decodeEdgePoly(ctx.RQ, level, seed)
		got, want := NewEncoder(ctx).Decode(p, level), oracleDecode(ctx, p, level)
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("level %d slot %d: decoded %d, oracle %d", level, k, got[k], want[k])
			}
		}
	})
}

// TestDecodeAllocsFlatInN pins Decode's allocations to a count that does not
// depend on the ring degree: the CRT constants are built with the ring, so a
// decode allocates its output and one scratch row, and nothing per
// coefficient.
func TestDecodeAllocsFlatInN(t *testing.T) {
	var counts []float64
	for _, logN := range []int{7, 10} {
		params, err := GenParams(logN, 3, 4, 2, 45, 46, 65537)
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
		counts = append(counts, testing.AllocsPerRun(5, func() { enc.Decode(p, level) }))
	}
	if counts[0] != counts[1] || counts[0] > 2 {
		t.Fatalf("Decode allocations at N=2^7, 2^10: %v; want the same count, at most 2", counts)
	}
}

// BenchmarkDecode times Decode at bgv-tally's shape: N=2^12, t=65537, five
// 45-bit chain limbs, decoded at the top level.
func BenchmarkDecode(b *testing.B) {
	params, err := GenParams(12, 4, 5, 2, 45, 46, 65537)
	if err != nil {
		b.Fatal(err)
	}
	ctx, err := NewContext(params)
	if err != nil {
		b.Fatal(err)
	}
	enc := NewEncoder(ctx)
	level := params.MaxLevel()
	p := decodeEdgePoly(ctx.RQ, level, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decodeSink = enc.Decode(p, level)
	}
}

// decodeSink keeps BenchmarkDecode's result live.
var decodeSink []uint64
