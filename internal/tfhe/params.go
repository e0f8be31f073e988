// Package tfhe implements TFHE-style logic FHE over the discretized torus
// T = (1/2^32)·Z/Z: LWE and ring-LWE (TRLWE) encryption, TRGSW external
// products, blind rotation, sample extraction, LWE key switching,
// programmable bootstrapping (PBS) and the boolean gate library.
//
// Negacyclic polynomial products run on one folded float64 FFT (fft.go):
// the blind rotation within its budgeted rounding error, and the
// key-generation product exactly, by splitting the mask into 16-bit halves
// (TrlweKey.keyProductInto). An exact 61-bit-prime NTT multiplier is kept
// with the tests as the oracle both are checked against.
package tfhe

import "fmt"

// Torus is an element of the discretized torus: the real value x/2^32 for
// the uint32 x, with wrap-around arithmetic.
type Torus = uint32

// Params describes a TFHE instance.
type Params struct {
	Name string

	// TRLWE / TRGSW dimensioning.
	N int // ring degree
	K int // number of mask polynomials (k)

	// Gadget decomposition (external product): l digits in base 2^BgBits.
	L      int
	BgBits int

	// LWE dimension of the gate-level ciphertexts.
	NLwe int

	// LWE key switch decomposition: T digits in base 2^BaseBits.
	KsT        int
	KsBaseBits int

	// Trimmed accumulator profile used by the FFT bootstrapping engine
	// (fft.go / brfft.go): a shorter, wider gadget (TrimL digits in base
	// 2^TrimBgBits) and a truncated key-switch decomposition (TrimKsT of
	// the KsT digits). Zero values fall back to L/BgBits/KsT, i.e. no
	// trimming. The noise budget justifying the defaults (l=2, Bg=2^11,
	// 6 key-switch digits for Set I) is derived in EXPERIMENTS.md.
	TrimL      int
	TrimBgBits int
	TrimKsT    int

	// Noise standard deviations (as fractions of the torus).
	LweSigma float64 // fresh LWE / key-switch key noise
	BkSigma  float64 // bootstrapping key noise
}

// Validate checks structural consistency.
func (p Params) Validate() error {
	if p.N < 8 || p.N&(p.N-1) != 0 {
		return fmt.Errorf("tfhe: N=%d must be a power of two ≥ 8", p.N)
	}
	if p.K < 1 {
		return fmt.Errorf("tfhe: K must be ≥ 1")
	}
	if p.L < 1 || p.BgBits < 1 || p.L*p.BgBits > 32 {
		return fmt.Errorf("tfhe: invalid gadget decomposition l=%d, BgBits=%d", p.L, p.BgBits)
	}
	if p.NLwe < 2 {
		return fmt.Errorf("tfhe: NLwe=%d too small", p.NLwe)
	}
	if p.KsT < 1 || p.KsBaseBits < 1 || p.KsT*p.KsBaseBits > 32 {
		return fmt.Errorf("tfhe: invalid key-switch decomposition t=%d, BaseBits=%d", p.KsT, p.KsBaseBits)
	}
	if p.TrimL < 0 || p.TrimBgBits < 0 || p.TrimL*p.TrimBgBits > 32 || (p.TrimL > 0) != (p.TrimBgBits > 0) {
		return fmt.Errorf("tfhe: invalid trimmed gadget l=%d, BgBits=%d", p.TrimL, p.TrimBgBits)
	}
	if p.TrimKsT < 0 || p.TrimKsT > p.KsT {
		return fmt.Errorf("tfhe: TrimKsT=%d outside [0,%d]", p.TrimKsT, p.KsT)
	}
	return nil
}

// TrimGadget returns the gadget decomposition used by the trimmed FFT
// accumulator, falling back to the exact path's gadget when no trim is set.
func (p Params) TrimGadget() (l, bgBits int) {
	if p.TrimL > 0 {
		return p.TrimL, p.TrimBgBits
	}
	return p.L, p.BgBits
}

// TrimKs returns the key-switch digit count used by the trimmed engine.
func (p Params) TrimKs() int {
	if p.TrimKsT > 0 {
		return p.TrimKsT
	}
	return p.KsT
}

// Bg returns the gadget base 2^BgBits.
func (p Params) Bg() uint32 { return 1 << uint(p.BgBits) }

// DefaultParams returns the standard 128-bit-style gate bootstrapping set
// (TFHE-lib defaults): n = 630, N = 1024, k = 1, l = 3, Bg = 2^7.
// This is also the paper's "Set I" for TFHE programmable bootstrapping.
func DefaultParams() Params {
	return Params{
		Name:       "SetI-N1024",
		N:          1024,
		K:          1,
		L:          3,
		BgBits:     7,
		NLwe:       630,
		KsT:        8,
		KsBaseBits: 2,
		TrimL:      2,
		TrimBgBits: 11,
		TrimKsT:    6,
		LweSigma:   3.05e-5, // 2^-15
		BkSigma:    3.72e-9, // 2^-28
	}
}

// SetII returns the second evaluation parameter set used for PBS throughput
// (larger ring, deeper decomposition), following the Strix evaluation.
func SetII() Params {
	return Params{
		Name:       "SetII-N2048",
		N:          2048,
		K:          1,
		L:          4,
		BgBits:     6,
		NLwe:       742,
		KsT:        8,
		KsBaseBits: 3,
		TrimL:      2,
		TrimBgBits: 11,
		TrimKsT:    6,
		LweSigma:   1.0e-5,
		BkSigma:    1.0e-10,
	}
}

// FastTestParams returns a reduced set for quick unit tests (lower security,
// same code paths).
func FastTestParams() Params {
	return Params{
		Name:       "fast-test",
		N:          512,
		K:          1,
		L:          3,
		BgBits:     7,
		NLwe:       300,
		KsT:        8,
		KsBaseBits: 2,
		TrimL:      2,
		TrimBgBits: 11,
		TrimKsT:    6,
		LweSigma:   1.0e-5,
		BkSigma:    1.0e-9,
	}
}
