package ckks

import (
	"math"
	"math/big"
	"sync"
	"testing"

	"alchemist/internal/oracle"
	"alchemist/internal/ring"
)

// centeredFloat rounds a centered coefficient to float64 through big.Float,
// the rounding the decode must reproduce.
func centeredFloat(x *big.Int) float64 {
	f, _ := new(big.Float).SetInt(x).Float64()
	return f
}

// oracleDecode is Decode with every coefficient taken from the big-int CRT
// reconstruction, centered and rounded through big.Float.
func oracleDecode(e *Encoder, p *ring.Poly, level int, scale float64) []complex128 {
	cs := oracle.Centered(e.ctx.RQ, level, p)
	w := make([]complex128, e.n)
	for j := range w {
		w[j] = complex(centeredFloat(cs[j])/scale, centeredFloat(cs[j+e.n])/scale)
	}
	e.specialFFT(w)
	return w
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
		p := oracle.DecodeEdgePoly(ctx.RQ, level, seed)
		got := make([]float64, ctx.Params.N())
		ctx.RQ.CRT(level).Float64s(p, got)
		cs := oracle.Centered(ctx.RQ, level, p)
		for j, g := range got {
			if want := centeredFloat(cs[j]); math.Float64bits(g) != math.Float64bits(want) {
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
		p := oracle.DecodeEdgePoly(ctx.RQ, level, 5)
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
	p := oracle.DecodeEdgePoly(ctx.RQ, level, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decodeSink = enc.Decode(p, level, params.Scale)
	}
}

// decodeSink keeps BenchmarkDecode's result live.
var decodeSink []complex128
