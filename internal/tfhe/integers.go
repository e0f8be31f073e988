package tfhe

import (
	"context"
	"fmt"
	"math"
)

// Integer messages over the torus: m ∈ [0, 2^bits) is encoded at
// μ = m / 2^(bits+1) — the top ("padding") bit of the phase stays zero so
// the blind rotation is unambiguous, and the encoding is additive as long
// as sums stay below 2^bits. EvalIntLUT applies an arbitrary function
// f: [0,2^bits) → [0,2^bits) with a single programmable bootstrap; this is
// the integer API TFHE libraries (Concrete-style) expose on top of PBS.

// intScale returns the torus quantum 1/2^(bits+1).
func intScale(bits int) float64 { return 1 / math.Exp2(float64(bits+1)) }

// EncryptInt encrypts an integer message with the given bit width.
func (s *Scheme) EncryptInt(m, bits int) (*LweSample, error) {
	if bits < 1 || bits > 6 {
		return nil, fmt.Errorf("tfhe: message width %d out of range [1,6]", bits)
	}
	space := 1 << uint(bits)
	if m < 0 || m >= space {
		return nil, fmt.Errorf("tfhe: message %d outside [0,%d)", m, space)
	}
	mu := TorusFromDouble(float64(m) * intScale(bits))
	return s.LweKey.Encrypt(mu, s.Params.LweSigma, s.rng), nil
}

// DecryptInt decodes an integer message.
func (s *Scheme) DecryptInt(c *LweSample, bits int) int {
	phase := DoubleFromTorus(s.LweKey.Phase(c))
	space := 1 << uint(bits)
	m := int(math.Round(phase / intScale(bits)))
	return ((m % (2 * space)) + 2*space) % (2 * space) % space
}

// AddInt returns the homomorphic sum (valid while the plaintext sum stays
// below 2^bits — the caller budgets carries, as in radix-based integer FHE).
func (s *Scheme) AddInt(a, b *LweSample) *LweSample {
	out := a.Copy()
	out.AddTo(b)
	return out
}

// EvalIntLUT applies f to an integer ciphertext with one programmable
// bootstrap, returning a fresh-noise encryption of f(m) mod 2^bits.
func (s *Scheme) EvalIntLUT(c *LweSample, bits int, f func(int) int) (*LweSample, error) {
	if bits < 1 || bits > 6 {
		return nil, fmt.Errorf("tfhe: message width %d out of range [1,6]", bits)
	}
	n := s.Params.N
	space := 1 << uint(bits)
	if n < 2*space {
		return nil, fmt.Errorf("tfhe: ring too small for %d buckets", space)
	}
	// Shift by half a bucket so noise around each encoding stays inside its
	// bucket (including m = 0 against the negacyclic wrap).
	shifted := c.Copy()
	shifted.B += TorusFromDouble(intScale(bits) / 2)
	// Test vector: phase p ∈ [0, 1/2) indexes tv[p·2N]; bucket width N/space.
	w := n / space
	tv := make(TorusPoly, n)
	for j := 0; j < n; j++ {
		v := f(j/w) % space
		if v < 0 {
			v += space
		}
		tv[j] = TorusFromDouble(float64(v) * intScale(bits))
	}
	b, err := s.sharedBootstrapper()
	if err != nil {
		return nil, err
	}
	return b.RunWith(context.Background(), shifted, tv)
}
