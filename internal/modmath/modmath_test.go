package modmath

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

var testPrimes = []uint64{
	97,
	12289,                     // classic NTT prime
	(1 << 36) - 3*(1<<16) + 1, // not necessarily prime; replaced below
}

func init() {
	// Replace placeholder entries with genuine NTT-friendly primes.
	ps, err := GenerateNTTPrimes(36, 1<<17, 2)
	if err != nil {
		panic(err)
	}
	big, err := GenerateNTTPrimes(61, 1<<17, 1)
	if err != nil {
		panic(err)
	}
	testPrimes = []uint64{97, 12289, ps[0], ps[1], big[0]}
}

func TestAddSubNegMod(t *testing.T) {
	for _, q := range testPrimes {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 1000; i++ {
			a := rng.Uint64() % q
			b := rng.Uint64() % q
			if got := AddMod(a, b, q); got != (a+b)%q {
				t.Fatalf("AddMod(%d,%d,%d) = %d", a, b, q, got)
			}
			if got := SubMod(a, b, q); got != (a+q-b)%q {
				t.Fatalf("SubMod(%d,%d,%d) = %d", a, b, q, got)
			}
			if got := AddMod(a, NegMod(a, q), q); got != 0 {
				t.Fatalf("a + (-a) != 0 mod %d for a=%d", q, a)
			}
		}
	}
}

func TestMulModAgainstBig(t *testing.T) {
	for _, q := range testPrimes {
		rng := rand.New(rand.NewSource(2))
		qb := new(big.Int).SetUint64(q)
		for i := 0; i < 1000; i++ {
			a := rng.Uint64() % q
			b := rng.Uint64() % q
			want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
			want.Mod(want, qb)
			if got := MulMod(a, b, q); got != want.Uint64() {
				t.Fatalf("MulMod(%d,%d,%d) = %d want %d", a, b, q, got, want.Uint64())
			}
		}
	}
}

func TestBarrettMatchesMulMod(t *testing.T) {
	for _, q := range testPrimes {
		br := NewBarrett(q)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 2000; i++ {
			a := rng.Uint64() % q
			b := rng.Uint64() % q
			if got, want := br.MulMod(a, b), MulMod(a, b, q); got != want {
				t.Fatalf("q=%d Barrett(%d,%d)=%d want %d", q, a, b, got, want)
			}
		}
		// Edge cases.
		for _, a := range []uint64{0, 1, q - 1} {
			for _, b := range []uint64{0, 1, q - 1} {
				if got, want := br.MulMod(a, b), MulMod(a, b, q); got != want {
					t.Fatalf("q=%d Barrett edge (%d,%d)=%d want %d", q, a, b, got, want)
				}
			}
		}
	}
}

func TestShoupMatchesMulMod(t *testing.T) {
	for _, q := range testPrimes {
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 2000; i++ {
			a := rng.Uint64() % q
			w := rng.Uint64() % q
			ws := ShoupPrecomp(w, q)
			if got, want := MulModShoup(a, w, ws, q), MulMod(a, w, q); got != want {
				t.Fatalf("q=%d Shoup(%d,%d)=%d want %d", q, a, w, got, want)
			}
		}
	}
}

func TestPowInvMod(t *testing.T) {
	for _, q := range testPrimes {
		rng := rand.New(rand.NewSource(6))
		for i := 0; i < 200; i++ {
			a := 1 + rng.Uint64()%(q-1)
			inv := InvMod(a, q)
			if MulMod(a, inv, q) != 1 {
				t.Fatalf("q=%d InvMod(%d) wrong", q, a)
			}
		}
		if PowMod(3, 0, q) != 1 {
			t.Fatalf("a^0 != 1")
		}
		// Fermat: a^(q-1) = 1.
		if PowMod(5%q, q-1, q) != 1 && q > 5 {
			t.Fatalf("Fermat fails for q=%d", q)
		}
	}
}

func TestIsPrimeKnownValues(t *testing.T) {
	primes := []uint64{2, 3, 5, 7, 12289, 65537, 1152921504606846883}
	for _, p := range primes {
		if !IsPrime(p) {
			t.Errorf("IsPrime(%d) = false", p)
		}
	}
	composites := []uint64{0, 1, 4, 9, 561, 1105, 25326001, 3215031751, 3825123056546413051}
	for _, c := range composites {
		if IsPrime(c) {
			t.Errorf("IsPrime(%d) = true", c)
		}
	}
}

func TestFactor(t *testing.T) {
	cases := map[uint64][]uint64{
		2:      {2},
		12:     {2, 3},
		360:    {2, 3, 5},
		12288:  {2, 3},
		999983: {999983},
	}
	for n, want := range cases {
		got := Factor(n)
		if len(got) != len(want) {
			t.Fatalf("Factor(%d) = %v want %v", n, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Factor(%d) = %v want %v", n, got, want)
			}
		}
	}
}

func TestPrimitiveRootAndRootOfUnity(t *testing.T) {
	for _, q := range testPrimes {
		g := PrimitiveRoot(q)
		// g^(q-1) == 1 but g^((q-1)/p) != 1 for all prime factors p.
		if PowMod(g, q-1, q) != 1 {
			t.Fatalf("q=%d: g^(q-1) != 1", q)
		}
		for _, p := range Factor(q - 1) {
			if PowMod(g, (q-1)/p, q) == 1 {
				t.Fatalf("q=%d: %d is not a primitive root", q, g)
			}
		}
	}
	// Negacyclic NTT needs a primitive 2N-th root.
	q := testPrimes[2]
	w, err := RootOfUnity(1<<17, q)
	if err != nil {
		t.Fatal(err)
	}
	if PowMod(w, 1<<17, q) != 1 || PowMod(w, 1<<16, q) == 1 {
		t.Fatalf("w is not a primitive 2^17-th root of unity mod %d", q)
	}
}

func TestGenerateNTTPrimes(t *testing.T) {
	ps, err := GenerateNTTPrimes(36, 1<<16, 8)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, p := range ps {
		if !IsPrime(p) {
			t.Fatalf("%d not prime", p)
		}
		if (p-1)%(1<<16) != 0 {
			t.Fatalf("%d != 1 mod 2N", p)
		}
		if seen[p] {
			t.Fatalf("duplicate prime %d", p)
		}
		seen[p] = true
		if p>>35 != 1 {
			t.Fatalf("prime %d is not 36 bits", p)
		}
	}
	if _, err := GenerateNTTPrimes(5, 1<<16, 1); err == nil {
		t.Fatal("expected error for tiny bit size")
	}
}

func TestCRTRoundTrip(t *testing.T) {
	moduli := []uint64{12289, 40961, 65537, 786433}
	rng := rand.New(rand.NewSource(7))
	prod := big.NewInt(1)
	for _, q := range moduli {
		prod.Mul(prod, new(big.Int).SetUint64(q))
	}
	for i := 0; i < 100; i++ {
		x := new(big.Int).Rand(rng, prod)
		res := CRTDecompose(x, moduli)
		back := CRTReconstruct(res, moduli)
		if back.Cmp(x) != 0 {
			t.Fatalf("CRT round trip failed: %v -> %v", x, back)
		}
	}
}

// Property-based tests over randomized moduli and operands.

func TestQuickRingAxioms(t *testing.T) {
	q := testPrimes[3]
	br := NewBarrett(q)
	cfg := &quick.Config{MaxCount: 500}
	// Distributivity: a*(b+c) == a*b + a*c.
	distrib := func(a, b, c uint64) bool {
		a, b, c = a%q, b%q, c%q
		left := br.MulMod(a, AddMod(b, c, q))
		right := AddMod(br.MulMod(a, b), br.MulMod(a, c), q)
		return left == right
	}
	if err := quick.Check(distrib, cfg); err != nil {
		t.Error(err)
	}
	// Associativity of multiplication.
	assoc := func(a, b, c uint64) bool {
		a, b, c = a%q, b%q, c%q
		return br.MulMod(br.MulMod(a, b), c) == br.MulMod(a, br.MulMod(b, c))
	}
	if err := quick.Check(assoc, cfg); err != nil {
		t.Error(err)
	}
	// Commutativity.
	comm := func(a, b uint64) bool {
		a, b = a%q, b%q
		return br.MulMod(a, b) == br.MulMod(b, a)
	}
	if err := quick.Check(comm, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickBarrettMontgomeryShoupAgree(t *testing.T) {
	for _, q := range []uint64{testPrimes[2], testPrimes[4]} {
		br := NewBarrett(q)
		f := func(a, w uint64) bool {
			a, w = a%q, w%q
			want := MulMod(a, w, q)
			if br.MulMod(a, w) != want {
				return false
			}
			return MulModShoup(a, w, ShoupPrecomp(w, q), q) == want
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
			t.Errorf("q=%d: %v", q, err)
		}
	}
}

func BenchmarkMulModDiv(b *testing.B) {
	q := testPrimes[2]
	x, r := q-12345, q-98765
	for i := 0; i < b.N; i++ {
		r = MulMod(x, r, q)
	}
	sinkU64 = r
}

func BenchmarkMulModBarrett(b *testing.B) {
	q := testPrimes[2]
	br := NewBarrett(q)
	x, r := q-12345, q-98765
	for i := 0; i < b.N; i++ {
		r = br.MulMod(x, r)
	}
	sinkU64 = r
}

func BenchmarkMulModShoup(b *testing.B) {
	q := testPrimes[2]
	w := q - 98765
	ws := ShoupPrecomp(w, q)
	r := q - 12345
	for i := 0; i < b.N; i++ {
		r = MulModShoup(r, w, ws, q)
	}
	sinkU64 = r
}

var sinkU64 uint64
