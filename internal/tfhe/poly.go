package tfhe

import "sync"

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

// PolyMultiplier holds the folded negacyclic FFT of degree N (fft.go) and
// the scratch arenas its users share: the blind rotation and the key-
// generation product both run on this one transform.
type PolyMultiplier struct {
	N   int
	fft *fftTables

	// Scratch arenas, shared safely by concurrent bootstraps
	// (Bootstrapper.RunBatch, Stream) and encryptions. The digit scratch is a
	// mutex-guarded freelist rather than a sync.Pool: pooling a bare slice
	// boxes its header on every Put, and the freelist's push/pop is
	// allocation-free once its backing array reaches steady size.
	cplx   cplxPool // []complex128 spectrum scratch
	intsMu sync.Mutex
	ints   []IntPoly // digit scratch freelist
	trlwe  sync.Pool // *TrlweSample scratch
}

// NewPolyMultiplier builds a multiplier for degree n (a power of two ≥ 8,
// see Params.Validate).
func NewPolyMultiplier(n int) *PolyMultiplier {
	return &PolyMultiplier{N: n, fft: newFFTTables(n)}
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
