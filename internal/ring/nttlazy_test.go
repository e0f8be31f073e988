package ring

import (
	"math/rand"
	"testing"
	"testing/quick"

	"alchemist/internal/modmath"
)

func TestLazyNTTMatchesEager(t *testing.T) {
	type tc struct {
		n int
		q uint64
	}
	var cases []tc
	for _, n := range []int{16, 256, 1024, 4096} {
		for _, bits := range []uint64{30, 45, 61} {
			primes, err := modmath.GenerateNTTPrimes(bits, uint64(2*n), 1)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, tc{n, primes[0]})
		}
	}
	// bgv's plaintext ring at the tally shape: t = 65537, N = 2^12.
	cases = append(cases, tc{4096, 65537})
	for _, c := range cases {
		n := c.n
		s, err := NewSubRing(n, c.q)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(n)))
		a := make([]uint64, n)
		for i := range a {
			a[i] = rng.Uint64() % s.Q
		}
		eager := append([]uint64(nil), a...)
		lazy := append([]uint64(nil), a...)
		s.NTT(eager)
		s.NTTLazy(lazy)
		for i := range eager {
			if eager[i] != lazy[i] {
				t.Fatalf("n=%d q=%d: lazy NTT differs at %d", n, c.q, i)
			}
		}
		s.INTT(eager)
		s.INTTLazy(lazy)
		for i := range eager {
			if eager[i] != lazy[i] || eager[i] != a[i] {
				t.Fatalf("n=%d q=%d: lazy INTT differs at %d", n, c.q, i)
			}
		}
	}
}

func TestQuickLazyRoundTrip(t *testing.T) {
	n := 128
	primes, err := modmath.GenerateNTTPrimes(50, uint64(2*n), 1)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := NewSubRing(n, primes[0])
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := make([]uint64, n)
		for i := range a {
			a[i] = rng.Uint64() % s.Q
		}
		b := append([]uint64(nil), a...)
		s.NTTLazy(b)
		s.INTTLazy(b)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMulModShoupLazyBound(t *testing.T) {
	// The lazy product must stay below 2q for inputs up to 4q.
	q := uint64(1)<<61 + 1 // any q < 2^62; use a valid NTT prime instead
	primes, _ := modmath.GenerateNTTPrimes(61, 256, 1)
	q = primes[0]
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 5000; i++ {
		a := rng.Uint64() % (4 * q)
		w := rng.Uint64() % q
		ws := modmath.ShoupPrecomp(w, q)
		r := modmath.MulModShoupLazy(a, w, ws, q)
		if r >= 2*q {
			t.Fatalf("lazy product %d ≥ 2q for a=%d w=%d", r, a, w)
		}
		if r%q != modmath.MulMod(a%q, w, q) {
			t.Fatalf("lazy product incongruent for a=%d w=%d", a, w)
		}
	}
}

func BenchmarkNTTEagerVsLazy(b *testing.B) {
	n := 4096
	primes, _ := modmath.GenerateNTTPrimes(50, uint64(2*n), 1)
	s, _ := NewSubRing(n, primes[0])
	a := make([]uint64, n)
	rng := rand.New(rand.NewSource(2))
	for i := range a {
		a[i] = rng.Uint64() % s.Q
	}
	b.Run("eager", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.NTT(a)
		}
	})
	b.Run("lazy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.NTTLazy(a)
		}
	})
}

func TestParallelNTTMatchesSerial(t *testing.T) {
	r := testRing(t, 512, 6)
	level := r.MaxLevel()
	a := randPoly(r, level, 99)
	serial := r.Clone(level, a)
	r.NTT(level, serial)

	r.SetWorkers(4)
	defer r.SetWorkers(1)
	parallel := r.Clone(level, a)
	r.NTT(level, parallel)
	if !r.Equal(level, serial, parallel) {
		t.Fatal("parallel NTT differs from serial")
	}
	r.INTT(level, parallel)
	if !r.Equal(level, parallel, a) {
		t.Fatal("parallel INTT round trip failed")
	}
	// Degenerate worker counts.
	r.SetWorkers(0)
	one := r.Clone(level, a)
	r.NTT(level, one)
	if !r.Equal(level, serial, one) {
		t.Fatal("workers=0 should behave like serial")
	}
	r.SetWorkers(100) // more workers than channels
	many := r.Clone(level, a)
	r.NTT(level, many)
	if !r.Equal(level, serial, many) {
		t.Fatal("oversubscribed workers differ")
	}
}
