package ring

import (
	"testing"

	"alchemist/internal/modmath"
)

// KSAccumulate must be bit-identical to the eager inner product on
// comfortable 40-bit primes and on near-2^61 edge primes, where a chunk of
// ksChunk = 4 products sits closest to the m·q ≤ 2^64 fold bound. The
// "flush" cases cross chunk boundaries, so chunk results combine through
// the exact modular add.

// ksTestRing builds a degree-n ring over `count` primes of the given bit
// size.
func ksTestRing(t *testing.T, n, count int, bits uint64) *Ring {
	t.Helper()
	primes, err := modmath.GenerateNTTPrimes(bits, uint64(2*n), count)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(n, primes)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// ksOperands draws `groups` digit polynomials and both key halves.
func ksOperands(r *Ring, level, groups int, seed int64) (d, kB, kA []*Poly) {
	s := newUniformSampler(r, seed)
	draw := func() []*Poly {
		ps := make([]*Poly, groups)
		for i := range ps {
			ps[i] = r.NewPoly(level)
			s.Uniform(level, ps[i])
		}
		return ps
	}
	return draw(), draw(), draw()
}

func TestLazyAccMatchesEager(t *testing.T) {
	for _, tc := range []struct {
		name   string
		bits   uint64
		groups int
	}{
		{"40bit-short", 40, 4},
		{"40bit-long", 40, 33},
		{"61bit-noflush", 61, ksChunk},
		{"61bit-flush", 61, ksChunk + 1},
		{"61bit-multiflush", 61, 29},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := ksTestRing(t, 128, 3, tc.bits)
			level := r.MaxLevel()
			d, kB, kA := ksOperands(r, level, tc.groups, 11)

			eagerB, eagerA := r.NewPoly(level), r.NewPoly(level) // zeroed
			for g := range d {
				r.MulCoeffsAndAdd(level, d[g], kB[g], eagerB)
				r.MulCoeffsAndAdd(level, d[g], kA[g], eagerA)
			}
			lazyB, lazyA := r.NewPoly(level), r.NewPoly(level)
			r.KSAccumulate(level, d, kB, kA, 0, false, lazyB, lazyA)

			if !r.Equal(level, eagerB, lazyB) || !r.Equal(level, eagerA, lazyA) {
				t.Fatal("KSAccumulate differs from eager MulCoeffsAndAdd")
			}
		})
	}
}

// TestLazyAutoMatchesEager checks the fused gather against the
// materialize-then-multiply reference: Σ φ_k(d_g) ⊙ k_g in the NTT domain.
func TestLazyAutoMatchesEager(t *testing.T) {
	for _, bits := range []uint64{40, 61} {
		r := ksTestRing(t, 128, 3, bits)
		level := r.MaxLevel()
		d, kB, kA := ksOperands(r, level, ksChunk+2, 13)
		k := r.GaloisElementForRotation(5)

		perm := r.NewPoly(level)
		eagerB, eagerA := r.NewPoly(level), r.NewPoly(level)
		for g := range d {
			r.AutomorphismNTT(level, d[g], k, perm)
			r.MulCoeffsAndAdd(level, perm, kB[g], eagerB)
			r.MulCoeffsAndAdd(level, perm, kA[g], eagerA)
		}
		lazyB, lazyA := r.NewPoly(level), r.NewPoly(level)
		r.KSAccumulate(level, d, kB, kA, k, true, lazyB, lazyA)

		if !r.Equal(level, eagerB, lazyB) || !r.Equal(level, eagerA, lazyA) {
			t.Fatalf("%d-bit: fused automorphism accumulate differs from eager", bits)
		}
	}
}
