package ring

import (
	"testing"

	"alchemist/internal/modmath"
)

// TestLazyCapBounds pins the converter's step-2 capacity: the largest m with
// m·q_src ≤ 2^64 over the source moduli (1 << (64 - bits.Len64(max q_src))).
func TestLazyCapBounds(t *testing.T) {
	for _, tc := range []struct {
		bits uint64
		want int
	}{{40, 1 << 24}, {61, 8}} {
		primes, err := modmath.GenerateNTTPrimes(tc.bits, 128, 4)
		if err != nil {
			t.Fatal(err)
		}
		if bc := NewBasisConverter(primes[:2], primes[2:]); bc.lazyCap != tc.want {
			t.Errorf("%d-bit lazyCap = %d, want %d", tc.bits, bc.lazyCap, tc.want)
		}
	}
}

// TestConvertLazyMatchesEager pins the lazy Bconv's byte-identity to the
// eager ConvertN across source levels and edge moduli (where the step-2
// capacity bound forces mid-sum flushes once L exceeds it).
func TestConvertLazyMatchesEager(t *testing.T) {
	for _, bits := range []uint64{40, 49, 61} {
		n := 128
		primes, err := modmath.GenerateNTTPrimes(bits, uint64(2*n), 14)
		if err != nil {
			t.Fatal(err)
		}
		src, dst := primes[:10], primes[10:]
		bc := NewBasisConverter(src, dst)
		in := make([][]uint64, len(src))
		s := prngFill(99)
		for i := range in {
			in[i] = make([]uint64, n)
			for k := range in[i] {
				in[i][k] = s() % src[i]
			}
		}
		for srcLevel := 0; srcLevel < len(src); srcLevel++ {
			eager := mk2d(len(dst), n)
			lazy := mk2d(len(dst), n)
			bc.ConvertN(srcLevel, in, eager, len(dst))
			bc.ConvertLazyN(srcLevel, in, lazy, len(dst))
			for j := range eager {
				for k := range eager[j] {
					if eager[j][k] != lazy[j][k] {
						t.Fatalf("%d-bit srcLevel=%d: lazy[%d][%d]=%d eager=%d", bits, srcLevel, j, k, lazy[j][k], eager[j][k])
					}
				}
			}
		}
	}
}

// TestDualConverterMatchesEager pins ConvertBoth (shared step 1, identity
// channels, lazy step 2) against the two separate eager conversions.
func TestDualConverterMatchesEager(t *testing.T) {
	for _, bits := range []uint64{40, 61} {
		n := 128
		primes, err := modmath.GenerateNTTPrimes(bits, uint64(2*n), 12)
		if err != nil {
			t.Fatal(err)
		}
		q, p := primes[:9], primes[9:]
		// Digit group = q[3:6], sitting at offset 3 of the Q target.
		src := q[3:6]
		toQ := NewBasisConverter(src, q)
		toP := NewBasisConverter(src, p)
		dc, err := NewDualConverter(toQ, toP, 3)
		if err != nil {
			t.Fatal(err)
		}
		in := make([][]uint64, len(src))
		s := prngFill(42)
		for i := range in {
			in[i] = make([]uint64, n)
			for k := range in[i] {
				in[i][k] = s() % src[i]
			}
		}
		for srcLevel := 0; srcLevel < len(src); srcLevel++ {
			for nQ := 1; nQ <= len(q); nQ += 3 {
				eagerQ, lazyQ := mk2d(len(q), n), mk2d(len(q), n)
				eagerP, lazyP := mk2d(len(p), n), mk2d(len(p), n)
				toQ.ConvertN(srcLevel, in, eagerQ, nQ)
				toP.ConvertN(srcLevel, in, eagerP, len(p))
				dc.ConvertBoth(srcLevel, in, lazyQ, lazyP, nQ)
				for j := 0; j < nQ; j++ {
					for k := 0; k < n; k++ {
						if eagerQ[j][k] != lazyQ[j][k] {
							t.Fatalf("%d-bit srcLevel=%d nQ=%d: Q[%d][%d] lazy=%d eager=%d", bits, srcLevel, nQ, j, k, lazyQ[j][k], eagerQ[j][k])
						}
					}
				}
				for j := range eagerP {
					for k := 0; k < n; k++ {
						if eagerP[j][k] != lazyP[j][k] {
							t.Fatalf("%d-bit srcLevel=%d: P[%d][%d] lazy=%d eager=%d", bits, srcLevel, j, k, lazyP[j][k], eagerP[j][k])
						}
					}
				}
			}
		}
	}
}

// TestDualConverterRejectsBadOffset pins the constructor validation.
func TestDualConverterRejectsBadOffset(t *testing.T) {
	n := 64
	primes, err := modmath.GenerateNTTPrimes(40, uint64(2*n), 6)
	if err != nil {
		t.Fatal(err)
	}
	q, p := primes[:4], primes[4:]
	toQ := NewBasisConverter(q[1:3], q)
	toP := NewBasisConverter(q[1:3], p)
	if _, err := NewDualConverter(toQ, toP, 0); err == nil {
		t.Fatal("offset 0 for a group at offset 1 should be rejected")
	}
	if _, err := NewDualConverter(toQ, toP, 3); err == nil {
		t.Fatal("out-of-range identity window should be rejected")
	}
	if _, err := NewDualConverter(toQ, toP, 1); err != nil {
		t.Fatalf("correct offset rejected: %v", err)
	}
	if _, err := NewDualConverter(toQ, toP, -1); err != nil {
		t.Fatalf("disabled identity window rejected: %v", err)
	}
}

func mk2d(rows, n int) [][]uint64 {
	out := make([][]uint64, rows)
	for i := range out {
		out[i] = make([]uint64, n)
	}
	return out
}

// prngFill returns a tiny deterministic word generator for test inputs
// (splitmix64; test-only, no crypto claim).
func prngFill(seed uint64) func() uint64 {
	x := seed
	return func() uint64 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
}
