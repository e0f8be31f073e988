package bgv

import (
	"math/big"
	"sync"
	"testing"

	"alchemist/internal/oracle"
	"alchemist/internal/ring"
)

// oracleDecode is Decode with every coefficient taken from the big-int CRT
// reconstruction: centered, then reduced into [0, t).
func oracleDecode(ctx *Context, p *ring.Poly, level int) []uint64 {
	tb := new(big.Int).SetUint64(ctx.Params.T)
	coeffs := make([]uint64, ctx.Params.N())
	for j, x := range oracle.Centered(ctx.RQ, level, p) {
		coeffs[j] = x.Mod(x, tb).Uint64() // Mod is Euclidean: [0, t)
	}
	ctx.RT.NTTLazy(coeffs)
	return coeffs
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
		p := oracle.DecodeEdgePoly(ctx.RQ, level, seed)
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
		p := oracle.DecodeEdgePoly(ctx.RQ, level, 5)
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
	p := oracle.DecodeEdgePoly(ctx.RQ, level, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decodeSink = enc.Decode(p, level)
	}
}

// decodeSink keeps BenchmarkDecode's result live.
var decodeSink []uint64
