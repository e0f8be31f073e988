package tfhe

import (
	"fmt"
	"sync"

	"alchemist/internal/modmath"
	"alchemist/internal/ring"
)

// TorusPoly is a polynomial over the discretized torus, negacyclic modulo
// X^N + 1.
type TorusPoly []Torus

// IntPoly is a polynomial with small signed integer coefficients (gadget
// digits or the binary secret key).
type IntPoly []int32

// AddTo sets p += q (torus addition is uint32 wrap-around).
func (p TorusPoly) AddTo(q TorusPoly) {
	for i := range p {
		p[i] += q[i]
	}
}

// SubTo sets p -= q.
func (p TorusPoly) SubTo(q TorusPoly) {
	for i := range p {
		p[i] -= q[i]
	}
}

// MonomialMulTo sets out = X^e · p (negacyclic), 0 ≤ e < 2N. out must not
// alias p.
func (p TorusPoly) MonomialMulTo(e int, out TorusPoly) {
	n := len(p)
	e &= 2*n - 1
	for j := 0; j < n; j++ {
		t := j + e
		v := p[j]
		if t >= 2*n {
			t -= 2 * n
		}
		if t >= n {
			t -= n
			v = -v
		}
		out[t] = v
	}
}

// PolyMultiplier computes exact negacyclic products intPoly × torusPoly via
// a single 61-bit prime NTT. Both the decomposed digits (|d| ≤ Bg/2) and the
// centered torus values (|t| < 2^31) fit the prime with room for the
// N-term accumulation, so the integer convolution is exact and reducing it
// modulo 2^32 yields the torus result. Key generation, encryption and
// phase computation use it; blind rotation runs on the FFT below.
type PolyMultiplier struct {
	N   int
	sub *ring.SubRing

	// fft is the folded negacyclic f64 transform used by the trimmed
	// bootstrapping accumulator (fft.go).
	fft *fftTables

	// Scratch arenas for the bootstrapping hot loop, shared safely by
	// concurrent bootstraps (Bootstrapper.RunBatch, Stream). The digit
	// scratch is a mutex-guarded freelist rather than a sync.Pool: pooling
	// a bare slice boxes its header on every Put, and the freelist's
	// push/pop is allocation-free once its backing array reaches steady
	// size.
	cplx   cplxPool // []complex128 spectrum scratch
	intsMu sync.Mutex
	ints   []IntPoly // digit scratch freelist
	trlwe  sync.Pool // *TrlweSample scratch
}

// NewPolyMultiplier builds a multiplier for degree n.
func NewPolyMultiplier(n int) (*PolyMultiplier, error) {
	primes, err := modmath.GenerateNTTPrimes(61, uint64(2*n), 1)
	if err != nil {
		return nil, fmt.Errorf("tfhe: %w", err)
	}
	sub, err := ring.NewSubRing(n, primes[0])
	if err != nil {
		return nil, err
	}
	return &PolyMultiplier{N: n, sub: sub, fft: newFFTTables(n)}, nil
}

// IntToNTT lifts an integer polynomial into the NTT domain.
func (pm *PolyMultiplier) IntToNTT(p IntPoly) []uint64 {
	out := make([]uint64, pm.N)
	pm.IntToNTTInto(p, out)
	return out
}

// IntToNTTInto is IntToNTT writing into caller-provided scratch (length N).
//
//alchemist:hot
//alchemist:domain out:[0,q)
func (pm *PolyMultiplier) IntToNTTInto(p IntPoly, out []uint64) {
	q := pm.sub.Q
	for i, v := range p {
		if v >= 0 {
			out[i] = uint64(v)
		} else {
			out[i] = q - uint64(-int64(v))
		}
	}
	pm.sub.NTTLazy(out)
}

// TorusToNTT lifts a torus polynomial (centered interpretation) into the NTT
// domain.
func (pm *PolyMultiplier) TorusToNTT(p TorusPoly) []uint64 {
	out := make([]uint64, pm.N)
	pm.TorusToNTTInto(p, out)
	return out
}

// TorusToNTTInto is TorusToNTT writing into caller-provided scratch (length N).
//
//alchemist:hot
//alchemist:domain out:[0,q)
func (pm *PolyMultiplier) TorusToNTTInto(p TorusPoly, out []uint64) {
	q := pm.sub.Q
	for i, v := range p {
		sv := int64(int32(v)) // centered in [-2^31, 2^31)
		if sv >= 0 {
			out[i] = uint64(sv)
		} else {
			out[i] = q - uint64(-sv)
		}
	}
	pm.sub.NTTLazy(out)
}

// MulAcc accumulates a ⊙ b (NTT domain) into acc.
func (pm *PolyMultiplier) MulAcc(a, b, acc []uint64) {
	pm.sub.MulCoeffsAndAdd(a, b, acc)
}

// FromNTT converts an NTT-domain accumulator back to a torus polynomial:
// INTT, center modulo the prime, then wrap modulo 2^32. acc is preserved.
func (pm *PolyMultiplier) FromNTT(acc []uint64) TorusPoly {
	tmp := append([]uint64(nil), acc...)
	out := make(TorusPoly, pm.N)
	pm.FromNTTInto(tmp, out)
	return out
}

// FromNTTInto is FromNTT writing into out, CONSUMING acc (the inverse
// transform runs in place, so acc holds coefficient-domain garbage after).
//
//alchemist:hot
//alchemist:domain acc:[0,q)
func (pm *PolyMultiplier) FromNTTInto(acc []uint64, out TorusPoly) {
	pm.sub.INTTLazy(acc)
	q := pm.sub.Q
	for i, v := range acc {
		out[i] = Torus(ring.SignedCoeff(v, q)) // wraps mod 2^32
	}
}

// Arena accessors shared by the bootstrapping kernels. Borrowed values have
// arbitrary contents; every user below overwrites them in full.

func (pm *PolyMultiplier) borrowInt() IntPoly {
	pm.intsMu.Lock()
	defer pm.intsMu.Unlock()
	if n := len(pm.ints); n > 0 {
		p := pm.ints[n-1]
		pm.ints[n-1] = nil
		pm.ints = pm.ints[:n-1]
		return p
	}
	return make(IntPoly, pm.N)
}

func (pm *PolyMultiplier) releaseInt(p IntPoly) {
	pm.intsMu.Lock()
	pm.ints = append(pm.ints, p)
	pm.intsMu.Unlock()
}

// borrowTrlwe returns a k-mask TRLWE sample shell from the arena (arbitrary
// contents). Samples of a different shape (pool warmed under another k) are
// dropped and rebuilt.
func (pm *PolyMultiplier) borrowTrlwe(k int) *TrlweSample {
	if v := pm.trlwe.Get(); v != nil {
		s := v.(*TrlweSample)
		if len(s.A) == k && len(s.B) == pm.N {
			return s
		}
	}
	return NewTrlweSample(pm.N, k)
}

func (pm *PolyMultiplier) releaseTrlwe(s *TrlweSample) { pm.trlwe.Put(s) }
