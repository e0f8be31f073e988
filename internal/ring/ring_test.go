package ring

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"alchemist/internal/modmath"
	"alchemist/internal/prng"
)

func testRing(t testing.TB, n int, nMod int) *Ring {
	t.Helper()
	primes, err := modmath.GenerateNTTPrimes(40, uint64(2*n), nMod)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(n, primes)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// uniformSampler fills polynomials with uniform residues drawn from a
// seeded stream: the ring tests' operand source.
type uniformSampler struct {
	rng prng.Source
	r   *Ring
}

func newUniformSampler(r *Ring, seed int64) *uniformSampler {
	return &uniformSampler{rng: prng.New(seed), r: r}
}

// Uniform fills p at levels 0..level.
func (s *uniformSampler) Uniform(level int, p *Poly) {
	for i := 0; i <= level; i++ {
		q := s.r.Moduli[i]
		for j := range p.Coeffs[i] {
			p.Coeffs[i][j] = prng.UniformMod(s.rng, q)
		}
	}
}

func randPoly(r *Ring, level int, seed int64) *Poly {
	p := r.NewPoly(level)
	newUniformSampler(r, seed).Uniform(level, p)
	return p
}

func TestNewSubRingValidation(t *testing.T) {
	if _, err := NewSubRing(3, 12289); err == nil {
		t.Error("expected error for non-power-of-two degree")
	}
	if _, err := NewSubRing(1024, 12288); err == nil {
		t.Error("expected error for composite modulus")
	}
	// 7681 = 1 + 512*15: supports N=256 (2N=512) but not N=1024.
	if _, err := NewSubRing(1024, 7681); err == nil {
		t.Error("expected error for q not 1 mod 2N")
	}
	if _, err := NewSubRing(256, 7681); err != nil {
		t.Errorf("expected success for N=256, q=7681: %v", err)
	}
}

func TestNTTRoundTrip(t *testing.T) {
	for _, n := range []int{16, 64, 256, 1024, 4096} {
		r := testRing(t, n, 3)
		level := r.MaxLevel()
		p := randPoly(r, level, 42)
		orig := r.Clone(level, p)
		r.NTT(level, p)
		if r.Equal(level, p, orig) {
			t.Fatalf("N=%d: NTT was identity", n)
		}
		r.INTT(level, p)
		if !r.Equal(level, p, orig) {
			t.Fatalf("N=%d: NTT/INTT round trip failed", n)
		}
	}
}

// mulNTT sets out = a·b through the NTT (out may alias a): the product the
// convolution, homomorphism and concurrency tests check. The cross-package
// tests use oracle.MulPoly, which this package's tests cannot import.
func mulNTT(r *Ring, level int, a, b, out *Poly) {
	bn := r.Borrow(level)
	r.CopyLevel(level, a, out)
	r.CopyLevel(level, b, bn)
	r.NTT(level, out)
	r.NTT(level, bn)
	r.MulCoeffs(level, out, bn, out)
	r.INTT(level, out)
	r.Release(bn)
}

func TestNTTConvolutionTheorem(t *testing.T) {
	for _, n := range []int{16, 128, 512} {
		r := testRing(t, n, 2)
		level := r.MaxLevel()
		a := randPoly(r, level, 1)
		b := randPoly(r, level, 2)
		// Reference: schoolbook negacyclic convolution per subring.
		want := r.NewPoly(level)
		for i := 0; i <= level; i++ {
			r.SubRings[i].NegacyclicConvolve(a.Coeffs[i], b.Coeffs[i], want.Coeffs[i])
		}
		got := r.NewPoly(level)
		mulNTT(r, level, a, b, got)
		if !r.Equal(level, got, want) {
			t.Fatalf("N=%d: NTT convolution != schoolbook", n)
		}
	}
}

func TestNTTLinearity(t *testing.T) {
	r := testRing(t, 256, 2)
	level := r.MaxLevel()
	f := func(seedA, seedB int64) bool {
		a := randPoly(r, level, seedA)
		b := randPoly(r, level, seedB)
		sum := r.NewPoly(level)
		r.Add(level, a, b, sum)
		r.NTT(level, sum) // NTT(a+b)
		r.NTT(level, a)
		r.NTT(level, b)
		sum2 := r.NewPoly(level)
		r.Add(level, a, b, sum2) // NTT(a)+NTT(b)
		return r.Equal(level, sum, sum2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPolyArithmeticIdentities(t *testing.T) {
	r := testRing(t, 128, 3)
	level := r.MaxLevel()
	a := randPoly(r, level, 10)
	zero := r.NewPoly(level)
	out := r.NewPoly(level)

	r.Add(level, a, zero, out)
	if !r.Equal(level, out, a) {
		t.Error("a + 0 != a")
	}
	r.Sub(level, a, a, out)
	if !r.Equal(level, out, zero) {
		t.Error("a - a != 0")
	}
	neg := r.NewPoly(level)
	r.Neg(level, a, neg)
	r.Add(level, a, neg, out)
	if !r.Equal(level, out, zero) {
		t.Error("a + (-a) != 0")
	}
	r.MulScalar(level, a, 1, out)
	if !r.Equal(level, out, a) {
		t.Error("1 * a != a")
	}
}

// TestMulCoeffsShoupMatchesMulCoeffs pins the fixed-operand product to the
// Barrett one, in place and out of place, on 40-bit moduli and on near-2^61
// edge moduli where the Shoup quotient estimate is widest; the operands
// include 0 and q−1.
func TestMulCoeffsShoupMatchesMulCoeffs(t *testing.T) {
	edge, err := modmath.GenerateNTTPrimes(61, 256, 3)
	if err != nil {
		t.Fatal(err)
	}
	edgeRing, err := NewRing(128, edge)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*Ring{"40-bit": testRing(t, 128, 3), "61-bit": edgeRing} {
		level := r.MaxLevel()
		a, b := randPoly(r, level, 11), randPoly(r, level, 12)
		for i, q := range r.Moduli {
			a.Coeffs[i][0], a.Coeffs[i][1], b.Coeffs[i][1], b.Coeffs[i][2] = 0, q-1, q-1, 0
		}
		bs, want, got := r.NewPoly(level), r.NewPoly(level), r.NewPoly(level)
		r.ShoupConstants(level, b, bs)
		r.MulCoeffs(level, a, b, want)
		r.MulCoeffsShoup(level, a, b, bs, got)
		if !r.Equal(level, got, want) {
			t.Errorf("%s: MulCoeffsShoup differs from MulCoeffs", name)
		}
		r.MulCoeffsShoup(level, a, b, bs, a)
		if !r.Equal(level, a, want) {
			t.Errorf("%s: in-place MulCoeffsShoup differs from MulCoeffs", name)
		}
	}
}

func TestBigCoeffsRoundTrip(t *testing.T) {
	r := testRing(t, 64, 3)
	level := r.MaxLevel()
	p := randPoly(r, level, 7)
	big := r.PolyToBigCoeffs(level, p)
	q := r.NewPoly(level)
	r.SetBigCoeffs(level, big, q)
	if !r.Equal(level, p, q) {
		t.Fatal("big.Int round trip failed")
	}
}

func TestAutomorphismComposition(t *testing.T) {
	r := testRing(t, 128, 2)
	level := r.MaxLevel()
	a := randPoly(r, level, 3)
	// φ_k1 ∘ φ_k2 == φ_{k1·k2 mod 2N}.
	k1, k2 := uint64(5), uint64(25)
	t1 := r.NewPoly(level)
	t2 := r.NewPoly(level)
	r.Automorphism(level, a, k2, t1)
	r.Automorphism(level, t1, k1, t2)
	want := r.NewPoly(level)
	r.Automorphism(level, a, k1*k2%(uint64(2*r.N)), want)
	if !r.Equal(level, t2, want) {
		t.Fatal("automorphism composition failed")
	}
	// φ_1 is the identity.
	r.Automorphism(level, a, 1, t1)
	if !r.Equal(level, t1, a) {
		t.Fatal("φ_1 != identity")
	}
}

func TestAutomorphismIsRingHom(t *testing.T) {
	// φ_k(a·b) == φ_k(a)·φ_k(b) in the negacyclic ring.
	r := testRing(t, 64, 2)
	level := r.MaxLevel()
	a := randPoly(r, level, 4)
	b := randPoly(r, level, 5)
	k := uint64(5)
	ab := r.NewPoly(level)
	mulNTT(r, level, a, b, ab)
	left := r.NewPoly(level)
	r.Automorphism(level, ab, k, left)

	fa, fb := r.NewPoly(level), r.NewPoly(level)
	r.Automorphism(level, a, k, fa)
	r.Automorphism(level, b, k, fb)
	right := r.NewPoly(level)
	mulNTT(r, level, fa, fb, right)
	if !r.Equal(level, left, right) {
		t.Fatal("automorphism is not a ring homomorphism")
	}
}

func TestBasisConverterAgainstCRT(t *testing.T) {
	n := 32
	src, err := modmath.GenerateNTTPrimes(40, uint64(2*n), 4)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := modmath.GenerateNTTPrimes(41, uint64(2*n), 3)
	if err != nil {
		t.Fatal(err)
	}
	bc := NewBasisConverter(src, dst)
	rng := rand.New(rand.NewSource(11))
	for level := 0; level < 4; level++ {
		Q := big.NewInt(1)
		for i := 0; i <= level; i++ {
			Q.Mul(Q, new(big.Int).SetUint64(src[i]))
		}
		in := make([][]uint64, level+1)
		for i := range in {
			in[i] = make([]uint64, n)
		}
		// Random x < Q, decomposed.
		xs := make([]*big.Int, n)
		for k := 0; k < n; k++ {
			xs[k] = new(big.Int).Rand(rng, Q)
			res := modmath.CRTDecompose(xs[k], src[:level+1])
			for i := 0; i <= level; i++ {
				in[i][k] = res[i]
			}
		}
		out := make([][]uint64, len(dst))
		for j := range out {
			out[j] = make([]uint64, n)
		}
		bc.ConvertN(level, in, out, len(dst))
		// Result must equal x + u*Q mod p_j with 0 <= u <= level+1.
		for j, pj := range dst {
			pjb := new(big.Int).SetUint64(pj)
			for k := 0; k < n; k++ {
				got := out[j][k]
				ok := false
				for u := int64(0); u <= int64(level)+1; u++ {
					want := new(big.Int).Mul(Q, big.NewInt(u))
					want.Add(want, xs[k])
					want.Mod(want, pjb)
					if want.Uint64() == got {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("level %d: Bconv result %d not of form x+uQ mod %d", level, got, pj)
				}
			}
		}
	}
}

func TestModUpModDownRoundTrip(t *testing.T) {
	// ModDown(ModUp(x)·P ... ) — here we check the simpler contract:
	// ModDown applied to (x over Q, Bconv(x) over P) returns ~0 plus
	// rounding, and ModDown(P·x over QP) returns x exactly.
	n := 64
	qs, err := modmath.GenerateNTTPrimes(40, uint64(2*n), 4)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := modmath.GenerateNTTPrimes(41, uint64(2*n), 2)
	if err != nil {
		t.Fatal(err)
	}
	rQ, _ := NewRing(n, qs)
	rP, _ := NewRing(n, ps)
	ext := NewExtender(rQ, rP, 1)
	level := rQ.MaxLevel()

	P := big.NewInt(1)
	for _, p := range ps {
		P.Mul(P, new(big.Int).SetUint64(p))
	}
	// x over Q, multiply by P exactly (per channel), extend P·x with zeros
	// over basis P (P·x ≡ 0 mod P), then ModDown must return exactly x.
	x := randPoly(rQ, level, 13)
	xP := rQ.NewPoly(level)
	rQ.MulScalarBig(level, x, P, xP)
	zeroP := rP.NewPoly(rP.MaxLevel())
	out := rQ.NewPoly(level)
	ext.ModDown(level, xP, zeroP, out)
	if !rQ.Equal(level, out, x) {
		t.Fatal("ModDown(P·x, 0) != x")
	}

	// Key-switching-shaped contract: a value y = P·m + e over the full QP
	// basis (m over Q, small e) ModDowns to m plus a small rounding error
	// bounded by the Bconv overshoot K plus e/P.
	m := randPoly(rQ, level, 14)
	rng := rand.New(rand.NewSource(15))
	yQ := rQ.NewPoly(level)
	rQ.MulScalarBig(level, m, P, yQ)
	yP := rP.NewPoly(rP.MaxLevel())
	for k := 0; k < n; k++ {
		e := int64(rng.Intn(1<<20) - 1<<19)
		for i := 0; i <= level; i++ {
			yQ.Coeffs[i][k] = modmath.AddMod(yQ.Coeffs[i][k], modmath.ReduceSigned(e, qs[i]), qs[i])
		}
		for j := range ps {
			yP.Coeffs[j][k] = modmath.ReduceSigned(e, ps[j])
		}
	}
	ext.ModDown(level, yQ, yP, out)
	maxErr := int64(len(ps)) + 2 // Bconv overshoot + rounding; e/P ≈ 0 here
	for i := 0; i <= level; i++ {
		qi := rQ.Moduli[i]
		for k := 0; k < n; k++ {
			diff := SignedCoeff(modmath.SubMod(out.Coeffs[i][k], m.Coeffs[i][k], qi), qi)
			if diff > maxErr || diff < -maxErr {
				t.Fatalf("ModDown(P·m+e) error too large: %d", diff)
			}
		}
	}
}

func TestRescaleByLastModulus(t *testing.T) {
	n := 32
	qs, err := modmath.GenerateNTTPrimes(40, uint64(2*n), 3)
	if err != nil {
		t.Fatal(err)
	}
	rQ, _ := NewRing(n, qs)
	rP, _ := NewRing(n, qs[:1]) // dummy P basis; rescale only needs Q tables
	_ = rP
	ext := NewExtender(rQ, rQ, 1)
	level := rQ.MaxLevel()
	ql := qs[level]

	// Exact case: x = ql * y → rescale returns y exactly.
	y := randPoly(rQ, level-1, 21)
	x := rQ.NewPoly(level)
	yBig := rQ.PolyToBigCoeffs(level-1, y)
	for k := range yBig {
		yBig[k].Mul(yBig[k], new(big.Int).SetUint64(ql))
	}
	rQ.SetBigCoeffs(level, yBig, x)
	out := rQ.NewPoly(level - 1)
	ext.RescaleByLastModulus(level, x, out)
	if !rQ.Equal(level-1, out, y) {
		t.Fatal("rescale of exact multiple failed")
	}
}

// TestDivisionsKeepT checks the t-scaled ModDown and rescale against their
// defining property on big integers: for an input x over Q·D (D = P, or
// D = q_level), the residue the division subtracted, δ = (x - D·out) mod Q·D,
// must be ≡ 0 (mod t) and lie in [0, t·len(D)·D). A wrong quotient leaves a
// δ that is uniform modulo Q·D instead.
func TestDivisionsKeepT(t *testing.T) {
	const n, tm = 32, 65537
	qs, err := modmath.GenerateNTTPrimes(50, uint64(2*n), 6)
	if err != nil {
		t.Fatal(err)
	}
	rQ, _ := NewRing(n, qs[:4])
	rP, _ := NewRing(n, qs[4:])
	ext := NewExtender(rQ, rP, tm)
	level := rQ.MaxLevel()
	coeff := func(moduli []uint64, k int, polys ...*Poly) *big.Int {
		var res []uint64
		for _, p := range polys {
			for _, c := range p.Coeffs {
				res = append(res, c[k])
			}
		}
		return modmath.CRTReconstruct(res, moduli)
	}
	prod := func(moduli []uint64) *big.Int {
		x := big.NewInt(1)
		for _, q := range moduli {
			x.Mul(x, new(big.Int).SetUint64(q))
		}
		return x
	}
	check := func(name string, x, out, d, m *big.Int, terms int64) {
		t.Helper()
		delta := new(big.Int).Mul(d, out)
		delta.Sub(x, delta).Mod(delta, m)
		bound := new(big.Int).Mul(d, big.NewInt(tm*terms))
		if new(big.Int).Mod(delta, big.NewInt(tm)).Sign() != 0 || delta.Cmp(bound) >= 0 {
			t.Fatalf("%s: subtracted residue %v is not a multiple of t below t·%d·D", name, delta, terms)
		}
	}

	xQ, xP := randPoly(rQ, level, 31), randPoly(rP, rP.MaxLevel(), 32)
	out := rQ.NewPoly(level)
	ext.ModDown(level, xQ, xP, out)
	for k := 0; k < n; k++ {
		check("ModDown", coeff(qs, k, xQ, xP), coeff(qs[:4], k, out), prod(qs[4:]), prod(qs), int64(len(rP.Moduli)))
	}

	rs := rQ.NewPoly(level - 1)
	ext.RescaleByLastModulus(level, xQ, rs)
	for k := 0; k < n; k++ {
		check("Rescale", coeff(qs[:4], k, xQ), coeff(qs[:3], k, rs), new(big.Int).SetUint64(qs[3]), prod(qs[:4]), 1)
	}
}

func TestFourStepNTTMatchesDirectDFT(t *testing.T) {
	for _, tc := range []struct{ n, n1 int }{{16, 4}, {64, 8}, {256, 16}, {1024, 32}, {4096, 64}} {
		primes, err := modmath.GenerateNTTPrimes(40, uint64(2*tc.n), 1)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSubRing(tc.n, primes[0])
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(31))
		a := make([]uint64, tc.n)
		for i := range a {
			a[i] = rng.Uint64() % s.Q
		}
		got, err := s.FourStepNTT(a, tc.n1)
		if err != nil {
			t.Fatal(err)
		}
		// Reference: X[k] = sum_j a[j] psi^(j(2k+1)) via Horner-free direct
		// evaluation (only for small N).
		if tc.n <= 256 {
			for k := 0; k < tc.n; k++ {
				pt := modmath.PowMod(s.Psi, uint64(2*k+1), s.Q)
				var acc, pw uint64 = 0, 1
				for j := 0; j < tc.n; j++ {
					acc = modmath.AddMod(acc, modmath.MulMod(a[j], pw, s.Q), s.Q)
					pw = modmath.MulMod(pw, pt, s.Q)
				}
				if acc != got[k] {
					t.Fatalf("N=%d n1=%d: four-step NTT mismatch at k=%d", tc.n, tc.n1, k)
				}
			}
		}
		// Round trip always.
		back, err := s.FourStepINTT(got, tc.n1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if back[i] != a[i] {
				t.Fatalf("N=%d n1=%d: four-step round trip failed at %d", tc.n, tc.n1, i)
			}
		}
	}
}

func TestFourStepMatchesBitrevNTT(t *testing.T) {
	// The in-place NTT outputs bit-reversed order; four-step outputs natural
	// order. They must agree up to that permutation.
	n := 256
	primes, err := modmath.GenerateNTTPrimes(40, uint64(2*n), 1)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := NewSubRing(n, primes[0])
	rng := rand.New(rand.NewSource(77))
	a := make([]uint64, n)
	for i := range a {
		a[i] = rng.Uint64() % s.Q
	}
	natural, err := s.FourStepNTT(a, 16)
	if err != nil {
		t.Fatal(err)
	}
	inplace := append([]uint64(nil), a...)
	s.NTT(inplace)
	logN := log2(n)
	for i := 0; i < n; i++ {
		if inplace[int(bitrev(uint32(i), logN))] != natural[i] {
			t.Fatalf("bitrev(NTT) != four-step at %d", i)
		}
	}
}

func TestFourStepErrors(t *testing.T) {
	n := 64
	primes, _ := modmath.GenerateNTTPrimes(40, uint64(2*n), 1)
	s, _ := NewSubRing(n, primes[0])
	a := make([]uint64, n)
	if _, err := s.FourStepNTT(a, 3); err == nil {
		t.Error("expected error for n1 not dividing N")
	}
	if _, err := s.FourStepNTT(a, 0); err == nil {
		t.Error("expected error for n1=0")
	}
}

func BenchmarkNTT(b *testing.B) {
	for _, n := range []int{1024, 4096, 16384, 65536} {
		primes, err := modmath.GenerateNTTPrimes(40, uint64(2*n), 1)
		if err != nil {
			b.Fatal(err)
		}
		s, _ := NewSubRing(n, primes[0])
		a := make([]uint64, n)
		rng := rand.New(rand.NewSource(1))
		for i := range a {
			a[i] = rng.Uint64() % s.Q
		}
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.NTT(a)
			}
		})
	}
}

func sizeName(n int) string {
	switch {
	case n >= 1<<20:
		return "N=big"
	default:
		return "N=" + itoa(n)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func TestAutomorphismNTTMatchesCoefficientDomain(t *testing.T) {
	// NTT(φ_k(a)) == AutomorphismNTT(NTT(a)) for every valid Galois element.
	r := testRing(t, 128, 2)
	level := r.MaxLevel()
	a := randPoly(r, level, 55)
	for _, k := range []uint64{1, 5, 25, uint64(2*r.N - 1), r.GaloisElementForRotation(7)} {
		viaCoeff := r.NewPoly(level)
		r.Automorphism(level, a, k, viaCoeff)
		r.NTT(level, viaCoeff)

		an := r.Clone(level, a)
		r.NTT(level, an)
		viaNTT := r.NewPoly(level)
		r.AutomorphismNTT(level, an, k, viaNTT)

		if !r.Equal(level, viaCoeff, viaNTT) {
			t.Fatalf("k=%d: NTT-domain automorphism disagrees", k)
		}
	}
}
