package tfhe

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPolyMultiplierMatchesSchoolbook(t *testing.T) {
	for _, n := range []int{16, 64, 256} {
		pm := nttOracle(n)
		rng := rand.New(rand.NewSource(1))
		for trial := 0; trial < 5; trial++ {
			a := make(IntPoly, n)
			b := make(TorusPoly, n)
			for i := range a {
				a[i] = int32(rng.Intn(129) - 64) // digits in [-64, 64]
				b[i] = rng.Uint32()
			}
			got := pm.mulIntTorus(a, b)
			want := mulIntTorusRef(a, b)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d trial %d: mismatch at %d: %d != %d", n, trial, i, got[i], want[i])
				}
			}
		}
	}
}

// TestKeygenProductMatchesNTTOracle pins the key-generation product: the
// FFT over centered 16-bit mask halves must equal the exact NTT product word
// for word, on random masks and keys and on the edge words whose halves sit
// at -2^15 against an all-ones key, where every coefficient of a
// half-product reaches its largest magnitude.
func TestKeygenProductMatchesNTTOracle(t *testing.T) {
	edges := []Torus{0x80000000, 0x7fffffff, 0xffff8000}
	for _, n := range []int{512, 1024, 2048} {
		for _, k := range []int{1, 2} {
			pm := NewPolyMultiplier(n)
			oracle := nttOracle(n)
			rng := rand.New(rand.NewSource(int64(n + k)))
			check := func(key *TrlweKey, a []TorusPoly, what string) {
				t.Helper()
				got := make(TorusPoly, n)
				key.keyProductInto(a, got)
				want := oracle.keyProduct(key, a)
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("N=%d k=%d %s: coeff %d = %#x, want %#x", n, k, what, j, got[j], want[j])
					}
				}
			}
			mask := func(word func(j int) Torus) []TorusPoly {
				a := make([]TorusPoly, k)
				for i := range a {
					a[i] = make(TorusPoly, n)
					for j := range a[i] {
						a[i][j] = word(j)
					}
				}
				return a
			}
			for trial := 0; trial < 50; trial++ {
				key := NewTrlweKey(Params{N: n, K: k}, pm, rng)
				check(key, mask(func(int) Torus { return rng.Uint32() }), "random")
			}
			ones := make([]IntPoly, k)
			for i := range ones {
				ones[i] = make(IntPoly, n)
				for j := range ones[i] {
					ones[i][j] = 1
				}
			}
			key := newTrlweKey(pm, ones)
			for _, w := range edges {
				check(key, mask(func(int) Torus { return w }), fmt.Sprintf("all %#x", w))
			}
			check(key, mask(func(j int) Torus { return edges[j%len(edges)] }), "mixed edges")
		}
	}
}

// mulIntTorus returns the negacyclic product a·b (a integer digits, b torus)
// through the exact NTT.
func (pm *nttMultiplier) mulIntTorus(a IntPoly, b TorusPoly) TorusPoly {
	acc := make([]uint64, pm.N)
	pm.MulAcc(pm.IntToNTT(a), pm.TorusToNTT(b), acc)
	return pm.FromNTT(acc)
}

// mulIntTorusRef is the O(N²) schoolbook reference.
func mulIntTorusRef(a IntPoly, b TorusPoly) TorusPoly {
	n := len(a)
	out := make(TorusPoly, n)
	for i := 0; i < n; i++ {
		if a[i] == 0 {
			continue
		}
		ai := Torus(a[i]) // two's-complement wrap is exactly torus scaling
		for j := 0; j < n; j++ {
			k := i + j
			p := ai * b[j]
			if k < n {
				out[k] += p
			} else {
				out[k-n] -= p
			}
		}
	}
	return out
}

func TestMonomialMul(t *testing.T) {
	n := 16
	p := make(TorusPoly, n)
	p[0] = 1
	out := make(TorusPoly, n)
	// X^1 · 1 = X.
	p.MonomialMulTo(1, out)
	if out[1] != 1 || out[0] != 0 {
		t.Fatal("X^1 shift wrong")
	}
	// X^n · 1 = -1.
	p.MonomialMulTo(n, out)
	if int32(out[0]) != -1 {
		t.Fatal("X^N wrap should negate")
	}
	// X^{2n} = identity.
	p.MonomialMulTo(2*n, out)
	if out[0] != 1 {
		t.Fatal("X^{2N} should be identity")
	}
	// Composition property on random polys (quick check).
	f := func(seed int64, e1, e2 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		q := make(TorusPoly, n)
		for i := range q {
			q[i] = rng.Uint32()
		}
		t1 := make(TorusPoly, n)
		t2 := make(TorusPoly, n)
		q.MonomialMulTo(int(e1)%(2*n), t1)
		t1.MonomialMulTo(int(e2)%(2*n), t2)
		direct := make(TorusPoly, n)
		q.MonomialMulTo((int(e1)+int(e2))%(2*n), direct)
		for i := range t2 {
			if t2[i] != direct[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLweEncryptDecrypt(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	key := NewLweKey(500, rng)
	for _, mu := range []float64{0.125, -0.125, 0.25, 0.0} {
		c := key.Encrypt(TorusFromDouble(mu), 1e-6, rng)
		phase := DoubleFromTorus(key.Phase(c))
		if math.Abs(phase-mu) > 1e-4 {
			t.Fatalf("phase %v for mu %v", phase, mu)
		}
	}
}

func TestLweLinearOps(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	key := NewLweKey(400, rng)
	c1 := key.Encrypt(TorusFromDouble(0.1), 1e-7, rng)
	c2 := key.Encrypt(TorusFromDouble(0.05), 1e-7, rng)
	sum := c1.Copy()
	sum.AddTo(c2)
	if math.Abs(DoubleFromTorus(key.Phase(sum))-0.15) > 1e-4 {
		t.Fatal("LWE add failed")
	}
	diff := c1.Copy()
	diff.SubTo(c2)
	if math.Abs(DoubleFromTorus(key.Phase(diff))-0.05) > 1e-4 {
		t.Fatal("LWE sub failed")
	}
	neg := c1.Copy()
	neg.Neg()
	if math.Abs(DoubleFromTorus(key.Phase(neg))+0.1) > 1e-4 {
		t.Fatal("LWE neg failed")
	}
	two := c1.Copy()
	two.MulScalarTo(2)
	if math.Abs(DoubleFromTorus(key.Phase(two))-0.2) > 1e-4 {
		t.Fatal("LWE scalar mul failed")
	}
}

func TestTrlweEncryptDecrypt(t *testing.T) {
	p := FastTestParams()
	rng := rand.New(rand.NewSource(9))
	key := NewTrlweKey(p, NewPolyMultiplier(p.N), rng)
	mu := make(TorusPoly, p.N)
	for i := range mu {
		mu[i] = TorusFromDouble(0.125 * float64(1-2*(i%2)))
	}
	c := key.Encrypt(mu, 1e-8, rng)
	phase := key.Phase(c)
	for i := range mu {
		if math.Abs(DoubleFromTorus(phase[i]-mu[i])) > 1e-5 {
			t.Fatalf("TRLWE phase error at %d", i)
		}
	}
}

func TestGadgetDecomposition(t *testing.T) {
	p := FastTestParams()
	d := newDecomposer(p)
	rng := rand.New(rand.NewSource(10))
	poly := make(TorusPoly, p.N)
	for i := range poly {
		poly[i] = rng.Uint32()
	}
	digits := make([]IntPoly, p.L)
	for j := range digits {
		digits[j] = make(IntPoly, p.N)
	}
	d.decompose(poly, digits)
	halfBg := int32(p.Bg() / 2)
	// The offset-trick reconstruction error is one-sided:
	// v - recon = (v + offset) mod 2^(32 - l·BgBits) ∈ [0, 2^(32-l·BgBits)).
	maxErr := int32(1) << uint(32-p.L*p.BgBits)
	for i := range poly {
		var recon Torus
		for j := 0; j < p.L; j++ {
			dv := digits[j][i]
			if dv < -halfBg || dv >= halfBg {
				t.Fatalf("digit %d out of range: %d", j, dv)
			}
			recon += Torus(dv) << uint(32-(j+1)*p.BgBits)
		}
		err := int32(poly[i] - recon)
		if err < 0 || err >= maxErr {
			t.Fatalf("reconstruction error %d outside [0, %d)", err, maxErr)
		}
	}
}

func TestSampleExtract(t *testing.T) {
	p := FastTestParams()
	rng := rand.New(rand.NewSource(12))
	key := NewTrlweKey(p, NewPolyMultiplier(p.N), rng)
	mu := make(TorusPoly, p.N)
	mu[0] = TorusFromDouble(0.2)
	c := key.Encrypt(mu, 1e-9, rng)
	ext := SampleExtract(c)
	lweKey := key.ExtractedLweKey()
	phase := DoubleFromTorus(lweKey.Phase(ext))
	if math.Abs(phase-0.2) > 1e-4 {
		t.Fatalf("sample extract phase %v want 0.2", phase)
	}
}

var testScheme *Scheme

func getScheme(t testing.TB) *Scheme {
	t.Helper()
	if testScheme == nil {
		s, err := NewScheme(FastTestParams(), 99)
		if err != nil {
			t.Fatal(err)
		}
		testScheme = s
	}
	return testScheme
}

func TestKeySwitch(t *testing.T) {
	s := getScheme(t)
	ext := s.TrlweKey.ExtractedLweKey()
	rng := rand.New(rand.NewSource(13))
	for _, mu := range []float64{0.125, -0.125} {
		c := ext.Encrypt(TorusFromDouble(mu), 1e-9, rng)
		out, err := s.KeySwitch(c)
		if err != nil {
			t.Fatal(err)
		}
		phase := DoubleFromTorus(s.LweKey.Phase(out))
		if math.Abs(phase-mu) > 0.03 {
			t.Fatalf("key switch phase %v want %v", phase, mu)
		}
	}
	bad := NewLweSample(3)
	if _, err := s.KeySwitch(bad); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestBootstrapRefreshesNoise(t *testing.T) {
	s := getScheme(t)
	boot, err := s.Bootstrapper()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []bool{true, false} {
		ct := s.EncryptBool(b)
		out, err := boot.RunWith(context.Background(), ct, s.GateTestVector(TorusFromDouble(0.125)))
		if err != nil {
			t.Fatal(err)
		}
		if s.DecryptBool(out) != b {
			t.Fatalf("bootstrap flipped %v", b)
		}
		phase := math.Abs(DoubleFromTorus(s.LweKey.Phase(out)))
		if math.Abs(phase-0.125) > 0.04 {
			t.Fatalf("bootstrap output phase %v not near ±1/8", phase)
		}
	}
}

func TestAllGatesTruthTables(t *testing.T) {
	s := getScheme(t)
	type binGate struct {
		name string
		f    func(x, y *LweSample) (*LweSample, error)
		want func(x, y bool) bool
	}
	gates := []binGate{
		{"NAND", s.NAND, func(x, y bool) bool { return !(x && y) }},
		{"AND", s.AND, func(x, y bool) bool { return x && y }},
		{"OR", s.OR, func(x, y bool) bool { return x || y }},
		{"NOR", s.NOR, func(x, y bool) bool { return !(x || y) }},
		{"XOR", s.XOR, func(x, y bool) bool { return x != y }},
		{"XNOR", s.XNOR, func(x, y bool) bool { return x == y }},
	}
	for _, g := range gates {
		for _, x := range []bool{false, true} {
			for _, y := range []bool{false, true} {
				cx, cy := s.EncryptBool(x), s.EncryptBool(y)
				out, err := g.f(cx, cy)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := s.DecryptBool(out), g.want(x, y); got != want {
					t.Errorf("%s(%v,%v) = %v want %v", g.name, x, y, got, want)
				}
			}
		}
	}
}

func TestNotGate(t *testing.T) {
	s := getScheme(t)
	for _, b := range []bool{true, false} {
		out := s.NOT(s.EncryptBool(b))
		if s.DecryptBool(out) == b {
			t.Fatalf("NOT(%v) wrong", b)
		}
	}
}

func TestMuxGate(t *testing.T) {
	s := getScheme(t)
	for _, c := range []bool{true, false} {
		for _, x := range []bool{true, false} {
			for _, y := range []bool{true, false} {
				out, err := s.MUX(s.EncryptBool(c), s.EncryptBool(x), s.EncryptBool(y))
				if err != nil {
					t.Fatal(err)
				}
				want := y
				if c {
					want = x
				}
				if s.DecryptBool(out) != want {
					t.Errorf("MUX(%v,%v,%v) wrong", c, x, y)
				}
			}
		}
	}
}

func TestProgrammableBootstrapLUT(t *testing.T) {
	// 1-bit message f(x) = NOT x via custom LUT: encode false → phase 1/8,
	// true → 3/8 would leave the safe region; instead reuse gate encoding
	// and program the output values.
	s := getScheme(t)
	boot, err := s.Bootstrapper()
	if err != nil {
		t.Fatal(err)
	}
	tv := s.GateTestVector(TorusFromDouble(0.0625)) // output ±1/16
	for _, b := range []bool{true, false} {
		ct := s.EncryptBool(b)
		out, err := boot.RunWith(context.Background(), ct, tv)
		if err != nil {
			t.Fatal(err)
		}
		phase := DoubleFromTorus(s.LweKey.Phase(out))
		want := -0.0625
		if b {
			want = 0.0625
		}
		if math.Abs(phase-want) > 0.03 {
			t.Fatalf("PBS LUT output %v want %v", phase, want)
		}
	}
}

func TestParamsValidate(t *testing.T) {
	good := []Params{DefaultParams(), SetII(), FastTestParams()}
	for _, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
	bad := DefaultParams()
	bad.N = 1000
	if err := bad.Validate(); err == nil {
		t.Error("expected invalid N")
	}
	bad = DefaultParams()
	bad.L = 10
	bad.BgBits = 10
	if err := bad.Validate(); err == nil {
		t.Error("expected invalid gadget")
	}
}

func BenchmarkGateBootstrap(b *testing.B) {
	s, err := NewScheme(DefaultParams(), 1234)
	if err != nil {
		b.Fatal(err)
	}
	x := s.EncryptBool(true)
	y := s.EncryptBool(false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.NAND(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func TestBootstrapBatchParallel(t *testing.T) {
	s := getScheme(t)
	tv := s.GateTestVector(TorusFromDouble(0.125))
	wants := []bool{true, false, true, true, false, false}
	cts := make([]*LweSample, len(wants))
	for i, b := range wants {
		cts[i] = s.EncryptBool(b)
	}
	boot, err := s.Bootstrapper(WithWorkers(4), WithTestVector(tv))
	if err != nil {
		t.Fatal(err)
	}
	outs, err := boot.RunBatch(context.Background(), cts)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range wants {
		if got := s.DecryptBool(outs[i]); got != want {
			t.Fatalf("batch PBS %d: got %v want %v", i, got, want)
		}
	}
}

func TestGatesAtStandardParameters(t *testing.T) {
	// The TFHE-lib-style 128-bit parameter set (N=1024, n=630, l=3) must
	// also evaluate gates correctly — the fast set used elsewhere is for
	// speed, not necessity.
	if testing.Short() {
		t.Skip("standard-parameter keygen + gates take several seconds")
	}
	s, err := NewScheme(DefaultParams(), 777)
	if err != nil {
		t.Fatal(err)
	}
	and, err := s.AND(s.EncryptBool(true), s.EncryptBool(true))
	if err != nil {
		t.Fatal(err)
	}
	if !s.DecryptBool(and) {
		t.Fatal("AND(1,1) at standard params wrong")
	}
	xor, err := s.XOR(s.EncryptBool(true), s.EncryptBool(false))
	if err != nil {
		t.Fatal(err)
	}
	if !s.DecryptBool(xor) {
		t.Fatal("XOR(1,0) at standard params wrong")
	}
}
