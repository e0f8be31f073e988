package modmath

import (
	"math/big"
	"testing"
)

// Edge-modulus coverage: the RNS bases used at production scale sit just
// below the 2^62 Barrett bound, so the reduction paths and CRT
// round-trips are exercised right at that boundary.

// primesNear62 are NTT-friendly primes q ≡ 1 (mod 2^15) just below 2^61 —
// the largest the generator emits, one doubling under the 2^62 reducer bound.
func primesNear62(t *testing.T, count int) []uint64 {
	t.Helper()
	ps, err := GenerateNTTPrimes(61, 1<<15, count)
	if err != nil {
		t.Fatalf("GenerateNTTPrimes: %v", err)
	}
	return ps
}

func TestCRTRoundTripNear62(t *testing.T) {
	moduli := primesNear62(t, 4)
	for _, q := range moduli {
		if q >= 1<<62 {
			t.Fatalf("generated modulus %d above 2^62", q)
		}
	}
	// Residue patterns that stress the boundary: zeros, q_i - 1, mixed.
	cases := [][]uint64{
		{0, 0, 0, 0},
		{moduli[0] - 1, moduli[1] - 1, moduli[2] - 1, moduli[3] - 1},
		{1, moduli[1] - 1, 0, moduli[3] / 2},
	}
	for _, residues := range cases {
		x := CRTReconstruct(residues, moduli)
		back := CRTDecompose(x, moduli)
		for i := range residues {
			if back[i] != residues[i] {
				t.Fatalf("round trip: residue %d = %d, want %d (x=%v)",
					i, back[i], residues[i], x)
			}
		}
	}
	// Negative value: decompose then reconstruct must agree modulo prod.
	neg := big.NewInt(-123456789)
	dec := CRTDecompose(neg, moduli)
	rec := CRTReconstruct(dec, moduli)
	prod := big.NewInt(1)
	for _, q := range moduli {
		prod.Mul(prod, new(big.Int).SetUint64(q))
	}
	want := new(big.Int).Mod(neg, prod)
	if rec.Cmp(want) != 0 {
		t.Fatalf("negative round trip: got %v want %v", rec, want)
	}
}

func TestCRTReconstructLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CRTReconstruct with mismatched lengths did not panic")
		}
	}()
	CRTReconstruct([]uint64{1, 2}, []uint64{97})
}

func TestBarrettRejectsOutOfRangeModulus(t *testing.T) {
	for _, q := range []uint64{0, 1, 1 << 62, ^uint64(0)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewBarrett(%d) did not panic", q)
				}
			}()
			NewBarrett(q)
		}()
	}
}

func TestReduceWordNear62(t *testing.T) {
	moduli := append(primesNear62(t, 2), 3, 12289, 65537, (1<<62)-1-56) // mixed sizes
	xs := []uint64{0, 1, 1 << 32, (1 << 62) - 1, 1 << 63, ^uint64(0)}
	for _, q := range moduli {
		if q < 2 || q >= 1<<62 {
			continue
		}
		b := NewBarrett(q)
		for _, x := range xs {
			if got, want := b.ReduceWord(x), x%q; got != want {
				t.Fatalf("ReduceWord(%d) mod %d = %d, want %d", x, q, got, want)
			}
		}
		for _, x := range []uint64{q - 1, q, q + 1, 2*q - 1, 2 * q, 3 * q} {
			if got, want := b.ReduceWord(x), x%q; got != want {
				t.Fatalf("ReduceWord(%d) mod %d = %d, want %d", x, q, got, want)
			}
		}
	}
}

func TestReduceSigned(t *testing.T) {
	qs := []uint64{2, 3, 97, 65537, (1 << 62) - 57}
	vs := []int64{0, 1, -1, 19, -19, 1 << 40, -(1 << 40), 1<<63 - 1, -(1<<63 - 1)}
	for _, q := range qs {
		for _, v := range vs {
			want := new(big.Int).Mod(big.NewInt(v), new(big.Int).SetUint64(q)).Uint64()
			if got := ReduceSigned(v, q); got != want {
				t.Fatalf("ReduceSigned(%d, %d) = %d, want %d", v, q, got, want)
			}
		}
		// Most negative int64: |v| is not representable as int64.
		v := int64(-1 << 63)
		want := new(big.Int).Mod(big.NewInt(v), new(big.Int).SetUint64(q)).Uint64()
		if got := ReduceSigned(v, q); got != want {
			t.Fatalf("ReduceSigned(MinInt64, %d) = %d, want %d", q, got, want)
		}
	}
}
