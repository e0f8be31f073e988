package tfhe

import (
	"fmt"
	"sync"

	"alchemist/internal/prng"
)

// Scheme bundles the keys and precomputations for gate evaluation and
// programmable bootstrapping.
type Scheme struct {
	Params Params
	PM     *PolyMultiplier

	LweKey   *LweKey    // level-0 key (dimension NLwe)
	TrlweKey *TrlweKey  // ring key
	decTrim  decomposer // trimmed gadget used by the FFT accumulator

	// Key-switch key from the extracted (k·N) key back to the level-0 key:
	// ksk[i][j] = LWE( s_ext[i] · 2^(32-(j+1)·BaseBits) ).
	KSK [][]*LweSample

	rng  prng.Source
	seed int64

	// Pair-bundled FFT bootstrapping key (trim.go), generated lazily from
	// a seed-derived PRNG on first trimmed bootstrap.
	pairOnce sync.Once
	pairKey  *pairBK

	// Arenas for the bootstrap pipeline: blind-rotate scratch bundles and
	// pooled LWE samples (level-0 and extracted shapes).
	fftScr sync.Pool
	lwe0   sync.Pool
	lweExt sync.Pool

	// Shared bootstrapper behind the gates and EvalIntLUT, built lazily so
	// every consumer reuses one pinned configuration instead of re-deriving
	// per-call state.
	bootMu sync.Mutex
	boot   *Bootstrapper
}

// NewScheme generates all keys for the given parameters.
func NewScheme(p Params, seed int64) (*Scheme, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	pm := NewPolyMultiplier(p.N)
	rng := prng.New(seed)
	l, bg := p.TrimGadget()
	s := &Scheme{
		Params:   p,
		PM:       pm,
		rng:      rng,
		seed:     seed,
		decTrim:  newDecomposerLB(l, bg),
		LweKey:   NewLweKey(p.NLwe, rng),
		TrlweKey: NewTrlweKey(p, pm, rng),
	}
	ext := s.TrlweKey.ExtractedLweKey()
	s.KSK = s.GenKeySwitchKey(ext.S)
	return s, nil
}

// GenKeySwitchKey builds a key-switch key from an arbitrary source secret
// (signed coefficients) down to this scheme's level-0 LWE key:
// ksk[i][j] = LWE( src[i] · 2^(32-(j+1)·BaseBits) ). Cross-scheme bridges
// use this to switch samples extracted under a CKKS ring key.
func (s *Scheme) GenKeySwitchKey(src []int32) [][]*LweSample {
	p := s.Params
	ksk := make([][]*LweSample, len(src))
	for i := range src {
		ksk[i] = make([]*LweSample, p.KsT)
		for j := 0; j < p.KsT; j++ {
			mu := Torus(src[i]) << uint(32-(j+1)*p.KsBaseBits)
			ksk[i][j] = s.LweKey.Encrypt(mu, p.LweSigma, s.rng)
		}
	}
	return ksk
}

// EncryptBool encrypts a boolean with the gate encoding μ = ±1/8.
func (s *Scheme) EncryptBool(b bool) *LweSample {
	mu := TorusFromDouble(-0.125)
	if b {
		mu = TorusFromDouble(0.125)
	}
	return s.LweKey.Encrypt(mu, s.Params.LweSigma, s.rng)
}

// DecryptBool decrypts a gate-encoded sample.
func (s *Scheme) DecryptBool(c *LweSample) bool { return s.LweKey.DecryptBool(c) }

// modSwitch maps a torus element to Z_{2N} with rounding.
func modSwitch(a Torus, twoN int) int {
	return int((uint64(a)*uint64(twoN) + (1 << 31)) >> 32 & uint64(twoN-1))
}

// LWE sample arenas --------------------------------------------------------

// borrowAbar returns Z_{2N} exponent scratch of length ≥ NLwe+1 (arbitrary
// contents), drawn from the digit arena when the ring is wide enough.
func (s *Scheme) borrowAbar() IntPoly {
	if s.Params.NLwe+1 <= s.PM.N {
		return s.PM.borrowInt() //alchemist:owns borrow wrapper: the caller pairs this with releaseAbar
	}
	return make(IntPoly, s.Params.NLwe+1)
}

// releaseAbar returns exponent scratch obtained from borrowAbar.
func (s *Scheme) releaseAbar(a IntPoly) {
	if len(a) == s.PM.N {
		s.PM.releaseInt(a)
	}
}

// borrowLwe returns a pooled LWE sample of dimension n with arbitrary
// contents (every consumer overwrites in full). Only the two pipeline
// shapes — level-0 (NLwe) and extracted (k·N) — are pooled.
func (s *Scheme) borrowLwe(n int) *LweSample {
	var pool *sync.Pool
	switch n {
	case s.Params.NLwe:
		pool = &s.lwe0
	case s.Params.K * s.Params.N:
		pool = &s.lweExt
	default:
		return NewLweSample(n)
	}
	if v := pool.Get(); v != nil {
		c := v.(*LweSample)
		if len(c.A) == n {
			return c
		}
	}
	return NewLweSample(n)
}

// releaseLwe returns a sample obtained from borrowLwe (or any sample of a
// pooled shape — Bootstrapper.Recycle routes caller-owned outputs here).
func (s *Scheme) releaseLwe(c *LweSample) {
	if c == nil {
		return
	}
	switch len(c.A) {
	case s.Params.NLwe:
		s.lwe0.Put(c)
	case s.Params.K * s.Params.N:
		s.lweExt.Put(c)
	}
}

// Key switching ------------------------------------------------------------

// ksOffset builds the decomposition offset for a t-digit key switch: the
// usual per-digit centering terms plus a half-ulp at the truncated level.
// Without the final term the reconstruction error — a mod 2^(32-t·b) — is
// uniform on [0, 2^(32-t·b)) and its positive mean, summed over the ~k·N/2
// active key coefficients, shows up as a deterministic phase shift (+1/32
// at t=6, b=2: a full message bucket). Rounding centers the residual.
func ksOffset(t, baseBits int, base Torus) Torus {
	var offset Torus
	for j := 1; j <= t; j++ {
		offset += (base / 2) << uint(32-j*baseBits)
	}
	if r := 32 - t*baseBits; r > 0 {
		offset += Torus(1) << uint(r-1)
	}
	return offset
}

// keySwitchInto switches an LWE sample down to the level-0 key using the
// first t digits of the decomposition, writing into out (fully
// overwritten). The direct scaled accumulation — out.A[m] -= d·row.A[m] —
// replaces the Copy/MulScalar/Sub chain that made the old key switch the
// last allocation-heavy kernel (6122 allocs, 16.4MB per bootstrap).
//
//alchemist:hot
func (s *Scheme) keySwitchInto(ksk [][]*LweSample, c *LweSample, t int, out *LweSample) {
	p := s.Params
	oa := out.A
	for m := range oa {
		oa[m] = 0
	}
	out.B = c.B
	base := Torus(1) << uint(p.KsBaseBits)
	half := int32(base / 2)
	mask := base - 1
	offset := ksOffset(t, p.KsBaseBits, base)
	for i, a := range c.A {
		at := a + offset
		for j := 0; j < t; j++ {
			shift := uint(32 - (j+1)*p.KsBaseBits)
			d := int32((at>>shift)&mask) - half
			if d == 0 {
				continue
			}
			row := ksk[i][j]
			ra := row.A
			dd := Torus(d)
			m0 := 0
			if useAVX2 {
				m0 = len(oa) &^ 7
				mulSubU32Vec(oa[:m0], ra[:m0], dd)
			}
			for m := m0; m < len(oa); m++ {
				oa[m] -= dd * ra[m]
			}
			out.B -= dd * row.B
		}
	}
}

// keySwitchBatchInto key-switches a batch of samples with the key-switch
// key row loop outermost, so each of the ~kN·t rows streams from memory
// once per batch instead of once per job. Element-wise torus arithmetic
// commutes exactly, so batch outputs are bit-identical to keySwitchInto.
//
//alchemist:hot
func (s *Scheme) keySwitchBatchInto(ksk [][]*LweSample, cs []*LweSample, t int, outs []*LweSample) {
	p := s.Params
	for b := range outs {
		oa := outs[b].A
		for m := range oa {
			oa[m] = 0
		}
		outs[b].B = cs[b].B
	}
	base := Torus(1) << uint(p.KsBaseBits)
	half := int32(base / 2)
	mask := base - 1
	offset := ksOffset(t, p.KsBaseBits, base)
	for i := range ksk {
		for j := 0; j < t; j++ {
			shift := uint(32 - (j+1)*p.KsBaseBits)
			var row *LweSample
			for b := range cs {
				d := int32(((cs[b].A[i]+offset)>>shift)&mask) - half
				if d == 0 {
					continue
				}
				if row == nil {
					row = ksk[i][j]
				}
				out := outs[b]
				oa, ra := out.A, row.A
				dd := Torus(d)
				m0 := 0
				if useAVX2 {
					m0 = len(oa) &^ 7
					mulSubU32Vec(oa[:m0], ra[:m0], dd)
				}
				for m := m0; m < len(oa); m++ {
					oa[m] -= dd * ra[m]
				}
				out.B -= dd * row.B
			}
		}
	}
}

// KeySwitch switches an extracted LWE sample (dimension k·N) down to the
// level-0 key using the decompose-and-scale variant with all KsT digits.
func (s *Scheme) KeySwitch(c *LweSample) (*LweSample, error) {
	if len(c.A) != s.Params.K*s.Params.N {
		return nil, fmt.Errorf("tfhe: key switch input dimension %d, want %d",
			len(c.A), s.Params.K*s.Params.N)
	}
	return s.KeySwitchWith(s.KSK, c)
}

// KeySwitchWith switches an LWE sample of arbitrary dimension len(ksk) to
// the level-0 key using the given key-switch key.
func (s *Scheme) KeySwitchWith(ksk [][]*LweSample, c *LweSample) (*LweSample, error) {
	if len(c.A) != len(ksk) {
		return nil, fmt.Errorf("tfhe: key switch input dimension %d, ksk covers %d", len(c.A), len(ksk))
	}
	out := NewLweSample(s.Params.NLwe)
	s.keySwitchInto(ksk, c, s.Params.KsT, out)
	return out, nil
}

// GateTestVector returns the constant test vector with value mu, which maps
// phases in (-1/4, 1/4) to +mu and the opposite half-torus to -mu.
func (s *Scheme) GateTestVector(mu Torus) TorusPoly {
	tv := make(TorusPoly, s.Params.N)
	for i := range tv {
		tv[i] = mu
	}
	return tv
}
