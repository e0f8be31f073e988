package tfhe

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"alchemist/internal/modmath"
	"alchemist/internal/prng"
	"alchemist/internal/ring"
)

// Exact-NTT reference paths. The shipped polynomial products run on the
// folded FFT: the trimmed, pair-bundled blind rotation (brfft.go) and the
// split key-generation product (TrlweKey.keyProductInto). This file keeps
// the exact 61-bit-prime NTT multiplier they replaced as the oracle, the
// key phase computed through it, and the textbook bootstrap datapath — one
// TRGSW per level-0 key bit, NLwe CMuxes each an exact NTT external product
// under the full (L, BgBits) gadget, and a key switch with all KsT digits —
// that FuzzTrimmedVsEagerPhase compares the FFT engine against at phase
// level.

// nttMultiplier computes exact negacyclic products intPoly × torusPoly via
// a single 61-bit prime NTT. Both the decomposed digits (|d| ≤ Bg/2) and the
// centered torus values (|t| < 2^31) fit the prime with room for the
// N-term accumulation, so the integer convolution is exact and reducing it
// modulo 2^32 yields the torus result.
type nttMultiplier struct {
	N   int
	sub *ring.SubRing
}

// nttOracles caches one multiplier per degree.
var nttOracles sync.Map // int → *nttMultiplier

// nttOracle returns the exact multiplier for degree n.
func nttOracle(n int) *nttMultiplier {
	if m, ok := nttOracles.Load(n); ok {
		return m.(*nttMultiplier)
	}
	primes, err := modmath.GenerateNTTPrimes(61, uint64(2*n), 1)
	if err != nil {
		panic(err)
	}
	sub, err := ring.NewSubRing(n, primes[0])
	if err != nil {
		panic(err)
	}
	m, _ := nttOracles.LoadOrStore(n, &nttMultiplier{N: n, sub: sub})
	return m.(*nttMultiplier)
}

// IntToNTT lifts an integer polynomial into the NTT domain.
func (pm *nttMultiplier) IntToNTT(p IntPoly) []uint64 {
	q := pm.sub.Q
	out := make([]uint64, pm.N)
	for i, v := range p {
		if v >= 0 {
			out[i] = uint64(v)
		} else {
			out[i] = q - uint64(-int64(v))
		}
	}
	pm.sub.NTTLazy(out)
	return out
}

// TorusToNTT lifts a torus polynomial (centered interpretation) into the NTT
// domain.
func (pm *nttMultiplier) TorusToNTT(p TorusPoly) []uint64 {
	q := pm.sub.Q
	out := make([]uint64, pm.N)
	for i, v := range p {
		sv := int64(int32(v)) // centered in [-2^31, 2^31)
		if sv >= 0 {
			out[i] = uint64(sv)
		} else {
			out[i] = q - uint64(-sv)
		}
	}
	pm.sub.NTTLazy(out)
	return out
}

// MulAcc accumulates a ⊙ b (NTT domain) into acc.
func (pm *nttMultiplier) MulAcc(a, b, acc []uint64) {
	pm.sub.MulCoeffsAndAdd(a, b, acc)
}

// FromNTT converts an NTT-domain accumulator back to a torus polynomial:
// INTT, center modulo the prime, then wrap modulo 2^32. acc is preserved.
func (pm *nttMultiplier) FromNTT(acc []uint64) TorusPoly {
	out := make(TorusPoly, pm.N)
	pm.FromNTTInto(append([]uint64(nil), acc...), out)
	return out
}

// FromNTTInto is FromNTT writing into out, CONSUMING acc (the inverse
// transform runs in place).
func (pm *nttMultiplier) FromNTTInto(acc []uint64, out TorusPoly) {
	pm.sub.INTTLazy(acc)
	q := pm.sub.Q
	for i, v := range acc {
		out[i] = Torus(ring.SignedCoeff(v, q)) // wraps mod 2^32
	}
}

// keyProduct returns Σ_i a_i·s_i for the key k through the exact NTT.
func (pm *nttMultiplier) keyProduct(k *TrlweKey, a []TorusPoly) TorusPoly {
	acc := make([]uint64, pm.N)
	for i, s := range k.S {
		pm.MulAcc(pm.TorusToNTT(a[i]), pm.IntToNTT(s), acc)
	}
	return pm.FromNTT(acc)
}

// Phase returns B - Σ A_i·s_i, computed through the exact NTT.
func (k *TrlweKey) Phase(s *TrlweSample) TorusPoly {
	out := append(TorusPoly(nil), s.B...)
	out.SubTo(nttOracle(len(s.B)).keyProduct(k, s.A))
	return out
}

// newDecomposer builds the full-gadget decomposer of the reference path.
func newDecomposer(p Params) decomposer { return newDecomposerLB(p.L, p.BgBits) }

// TrgswNTT is a TRGSW ciphertext with every row stored in the NTT domain,
// ready for external products: rows[r][c] is component c of row r.
type TrgswNTT struct {
	rows [][][]uint64
}

// EncryptTrgsw encrypts the small integer message m (typically a key bit)
// as a TRGSW sample in the NTT domain.
func (k *TrlweKey) EncryptTrgsw(p Params, m int32, rng prng.Source) *TrgswNTT {
	zero := make(TorusPoly, p.N)
	g := &TrgswNTT{}
	for i := 0; i <= p.K; i++ { // which component carries the gadget
		for j := 0; j < p.L; j++ {
			row := k.Encrypt(zero, p.BkSigma, rng)
			gval := Torus(m) << uint(32-(j+1)*p.BgBits)
			if i < p.K {
				row.A[i][0] += gval
			} else {
				row.B[0] += gval
			}
			pm := nttOracle(p.N)
			var comps [][]uint64
			for c := 0; c < p.K; c++ {
				comps = append(comps, pm.TorusToNTT(row.A[c]))
			}
			comps = append(comps, pm.TorusToNTT(row.B))
			g.rows = append(g.rows, comps)
		}
	}
	return g
}

// ExternalProduct computes g ⊡ s ≈ TRLWE(m_g · m_s).
func ExternalProduct(p Params, pm *nttMultiplier, dec decomposer, g *TrgswNTT, s *TrlweSample) *TrlweSample {
	digits := make([]IntPoly, p.L)
	for j := range digits {
		digits[j] = make(IntPoly, p.N)
	}
	acc := make([][]uint64, p.K+1)
	for c := range acc {
		acc[c] = make([]uint64, p.N)
	}
	row := 0
	for i := 0; i <= p.K; i++ {
		comp := s.B
		if i < p.K {
			comp = s.A[i]
		}
		dec.decompose(comp, digits)
		for _, d := range digits {
			dNTT := pm.IntToNTT(d)
			for c := range acc {
				pm.MulAcc(dNTT, g.rows[row][c], acc[c])
			}
			row++
		}
	}
	out := NewTrlweSample(p.N, p.K)
	for c := 0; c < p.K; c++ {
		pm.FromNTTInto(acc[c], out.A[c])
	}
	pm.FromNTTInto(acc[p.K], out.B)
	return out
}

// CMux returns d0 + g ⊡ (d1 - d0): selects d1 when g encrypts 1, d0 when 0.
// Both inputs are preserved.
func CMux(p Params, pm *nttMultiplier, dec decomposer, g *TrgswNTT, d1, d0 *TrlweSample) *TrlweSample {
	diff := d1.Copy()
	diff.SubTo(d0)
	out := ExternalProduct(p, pm, dec, g, diff)
	out.AddTo(d0)
	return out
}

// blindRotateEagerInto overwrites acc with X^{-phase}·tv by NLwe CMuxes over
// the per-bit key bk. abar holds the Z_{2N} exponents (modSwitchInto
// layout).
func (s *Scheme) blindRotateEagerInto(bk []*TrgswNTT, abar []int32, tv TorusPoly, acc *TrlweSample) {
	p := s.Params
	dec := newDecomposer(p)
	pm := nttOracle(p.N)
	initAccInto(abar, p.NLwe, tv, acc)
	for i := 0; i < p.NLwe; i++ {
		if abar[i] != 0 {
			*acc = *CMux(p, pm, dec, bk[i], acc.MonomialMul(int(abar[i])), acc)
		}
	}
}

// eagerBK caches the reference bootstrapping key of the last scheme asked
// for, so fuzz iterations on the shared test scheme build it once.
var eagerBK struct {
	sync.Mutex
	s  *Scheme
	bk []*TrgswNTT
}

// eagerBootKey returns one TRGSW encryption of each level-0 key bit of s,
// drawn from a PRNG derived from the scheme seed.
func eagerBootKey(s *Scheme) []*TrgswNTT {
	eagerBK.Lock()
	defer eagerBK.Unlock()
	if eagerBK.s != s {
		p := s.Params
		rng := prng.New(s.seed ^ 0x3e4a6e7b00c5)
		bk := make([]*TrgswNTT, p.NLwe)
		for i := range bk {
			bk[i] = s.TrlweKey.EncryptTrgsw(p, s.LweKey.S[i], rng)
		}
		eagerBK.s, eagerBK.bk = s, bk
	}
	return eagerBK.bk
}

// eagerBootstrap is the reference programmable bootstrap: exact-NTT blind
// rotation, sample extraction, and a key switch with all KsT digits.
func (s *Scheme) eagerBootstrap(ct *LweSample, tv TorusPoly) *LweSample {
	p := s.Params
	abar := make([]int32, p.NLwe+1)
	modSwitchInto(ct, 2*p.N, abar)
	acc := NewTrlweSample(p.N, p.K)
	s.blindRotateEagerInto(eagerBootKey(s), abar, tv, acc)
	out := NewLweSample(p.NLwe)
	s.keySwitchInto(s.KSK, SampleExtract(acc), p.KsT, out)
	return out
}

// Copy returns a deep copy.
func (s *TrlweSample) Copy() *TrlweSample {
	out := &TrlweSample{A: make([]TorusPoly, len(s.A)), B: append(TorusPoly(nil), s.B...)}
	for i := range s.A {
		out.A[i] = append(TorusPoly(nil), s.A[i]...)
	}
	return out
}

// AddTo sets s += o.
func (s *TrlweSample) AddTo(o *TrlweSample) {
	for i := range s.A {
		s.A[i].AddTo(o.A[i])
	}
	s.B.AddTo(o.B)
}

// SubTo sets s -= o.
func (s *TrlweSample) SubTo(o *TrlweSample) {
	for i := range s.A {
		s.A[i].SubTo(o.A[i])
	}
	s.B.SubTo(o.B)
}

// MonomialMul returns X^e · s (negacyclic rotation of every component).
func (s *TrlweSample) MonomialMul(e int) *TrlweSample {
	out := NewTrlweSample(len(s.B), len(s.A))
	for i := range s.A {
		s.A[i].MonomialMulTo(e, out.A[i])
	}
	s.B.MonomialMulTo(e, out.B)
	return out
}

func TestExternalProductAndCMux(t *testing.T) {
	p := FastTestParams()
	pm := nttOracle(p.N)
	rng := rand.New(rand.NewSource(11))
	key := NewTrlweKey(p, NewPolyMultiplier(p.N), rng)
	dec := newDecomposer(p)

	mu := make(TorusPoly, p.N)
	for i := range mu {
		if i%3 == 0 {
			mu[i] = TorusFromDouble(-0.125)
		} else {
			mu[i] = TorusFromDouble(0.125)
		}
	}
	ct := key.Encrypt(mu, 1e-9, rng)

	for _, bit := range []int32{0, 1} {
		g := key.EncryptTrgsw(p, bit, rng)
		prod := ExternalProduct(p, pm, dec, g, ct)
		phase := key.Phase(prod)
		for i := range mu {
			want := 0.0
			if bit == 1 {
				want = DoubleFromTorus(mu[i])
			}
			if math.Abs(DoubleFromTorus(phase[i])-want) > 1e-3 {
				t.Fatalf("external product bit=%d slot %d: phase %v want %v",
					bit, i, DoubleFromTorus(phase[i]), want)
			}
		}
	}

	// CMux selects.
	d0 := key.Encrypt(make(TorusPoly, p.N), 1e-9, rng) // zeros
	d1 := key.Encrypt(mu, 1e-9, rng)
	for _, bit := range []int32{0, 1} {
		g := key.EncryptTrgsw(p, bit, rng)
		sel := CMux(p, pm, dec, g, d1, d0)
		phase := key.Phase(sel)
		for i := range mu {
			want := 0.0
			if bit == 1 {
				want = DoubleFromTorus(mu[i])
			}
			if math.Abs(DoubleFromTorus(phase[i])-want) > 1e-3 {
				t.Fatalf("CMux bit=%d slot %d wrong", bit, i)
			}
		}
	}
}
