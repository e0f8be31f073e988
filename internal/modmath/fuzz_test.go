package modmath

import (
	"math/big"
	"testing"
)

// FuzzReductionAgreement drives the Barrett and Shoup modular-multiplication
// paths (and Barrett's single-word fold) with arbitrary operands; they must
// always agree with MulMod.
func FuzzReductionAgreement(f *testing.F) {
	f.Add(uint64(3), uint64(5), uint64(12289))
	f.Add(uint64(0), uint64(0), uint64(97))
	f.Add(^uint64(0), ^uint64(0), uint64(1152921504606846883))
	// Boundary corpus: moduli at the very top of the 2^62 reducer bound,
	// operands at the extremes of the word.
	f.Add(uint64(1)<<63, uint64(1)<<62, (uint64(1)<<62)-60)
	f.Add((uint64(1)<<62)-1, uint64(3), (uint64(1)<<62)-4)
	f.Add(uint64(1), ^uint64(0)>>1, uint64(2305843009213693951)) // Mersenne 2^61-1
	f.Add(^uint64(0), uint64(1), uint64(4611686018427387847))
	f.Fuzz(func(t *testing.T, a, b, qSeed uint64) {
		// Derive a modulus in (2, 2^62) from the seed, even or odd: Barrett
		// and Shoup take any 1 < q < 2^62.
		q := qSeed%((1<<62)-3) + 3
		// The single-word fold must agree with % on the raw (unreduced)
		// inputs before they are clamped below q.
		br := NewBarrett(q)
		if got := br.ReduceWord(a); got != a%q {
			t.Fatalf("ReduceWord(%d) mod %d = %d want %d", a, q, got, a%q)
		}
		if got := br.ReduceWord(b); got != b%q {
			t.Fatalf("ReduceWord(%d) mod %d = %d want %d", b, q, got, b%q)
		}
		a %= q
		b %= q
		want := MulMod(a, b, q)
		if got := br.MulMod(a, b); got != want {
			t.Fatalf("Barrett(%d,%d) mod %d = %d want %d", a, b, q, got, want)
		}
		if got := MulModShoup(a, b, ShoupPrecomp(b, q), q); got != want {
			t.Fatalf("Shoup(%d,%d) mod %d = %d want %d", a, b, q, got, want)
		}
		lazy := MulModShoupLazy(a, b, ShoupPrecomp(b, q), q)
		if lazy%q != want || lazy >= 2*q {
			t.Fatalf("lazy Shoup(%d,%d) mod %d = %d out of contract", a, b, q, lazy)
		}
	})
}

// FuzzMulModShoupLazyDomain pins MulModShoupLazy's full documented contract:
// over the whole Harvey domain a < 4q (not just the reduced a < q the
// agreement fuzzer exercises), the result stays below 2q and is congruent to
// a·w. The lazy NTT kernels in package ring feed butterfly sums up to 4q into
// this function and rely on both halves of the guarantee.
func FuzzMulModShoupLazyDomain(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(12289))
	f.Add(^uint64(0), uint64(1), uint64(4611686018427387847))
	// a at the very top of the 4q domain, q at the top of the 2^62 bound.
	f.Add(^uint64(0), ^uint64(0), (uint64(1)<<62)-60)
	f.Add(uint64(1)<<63, (uint64(1)<<62)-61, (uint64(1)<<62)-60)
	f.Fuzz(func(t *testing.T, aSeed, wSeed, qSeed uint64) {
		q := qSeed%((1<<62)-3) + 3
		if q%2 == 0 {
			q++
		}
		a := aSeed % (4 * q) // full lazy butterfly domain [0, 4q)
		w := wSeed % q
		r := MulModShoupLazy(a, w, ShoupPrecomp(w, q), q)
		if r >= 2*q {
			t.Fatalf("MulModShoupLazy(%d,%d) mod %d = %d ≥ 2q", a, w, q, r)
		}
		if want := MulMod(a%q, w, q); r%q != want {
			t.Fatalf("MulModShoupLazy(%d,%d) mod %d ≡ %d want %d", a, w, q, r%q, want)
		}
	})
}

// FuzzBarrettReduceWide pins Reduce's widened contract: any 128-bit value
// x = hi:lo with hi < q (i.e. x < q·2^64) reduces to x mod q, not just single
// products x < q². The fused keyswitch (ring.KSAccumulate) and the lazy
// basis conversion sum several unreduced products under exactly this bound
// before their one deferred reduction, so both rest on this pin. Oracle:
// big.Int.
func FuzzBarrettReduceWide(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(12289))
	f.Add(^uint64(0), ^uint64(0), uint64(97))
	// hi at the very top of the domain (q-1), q at the top of the 2^62 bound.
	f.Add((uint64(1)<<62)-61, ^uint64(0), (uint64(1)<<62)-60)
	f.Add(uint64(2305843009213693950), ^uint64(0), uint64(2305843009213693951))
	f.Fuzz(func(t *testing.T, hiSeed, lo, qSeed uint64) {
		q := qSeed%((1<<62)-3) + 3
		if q%2 == 0 {
			q++
		}
		hi := hiSeed % q // the full domain: x < q·2^64 ⟺ hi < q
		x := new(big.Int).Lsh(new(big.Int).SetUint64(hi), 64)
		x.Add(x, new(big.Int).SetUint64(lo))
		want := x.Mod(x, new(big.Int).SetUint64(q)).Uint64()
		if got := NewBarrett(q).Reduce(hi, lo); got != want {
			t.Fatalf("Reduce(%d, %d) mod %d = %d want %d", hi, lo, q, got, want)
		}
	})
}
