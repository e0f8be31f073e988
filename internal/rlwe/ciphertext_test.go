package rlwe_test

import (
	"bytes"
	"testing"

	"alchemist/internal/bgv"
	"alchemist/internal/ckks"
	"alchemist/internal/prng"
	"alchemist/internal/ring"
	"alchemist/internal/rlwe"
)

// TestMulPlainMatchesMulPoly pins MulPlain, which transforms pt once for
// both components, byte-identical to one MulPoly per component, under both
// schemes' contexts, at the top level and below it (pt then sits above the
// ciphertext's level).
func TestMulPlainMatchesMulPoly(t *testing.T) {
	for name, f := range map[string]fixture{
		"ckks": ckksFixture(t, ckks.TestParams()),
		"bgv":  bgvFixture(t, bgv.TestParams()),
	} {
		t.Run(name, func(t *testing.T) {
			rq := f.ctx.RQ
			ev := rlwe.NewEvaluator(f.ctx)
			rng := prng.New(26)
			pt := rlwe.UniformPoly(rng, rq, rq.MaxLevel())
			for _, level := range []int{rq.MaxLevel(), 1} {
				ct := rlwe.Ciphertext{B: rlwe.UniformPoly(rng, rq, level), A: rlwe.UniformPoly(rng, rq, level), Level: level}
				got := ev.MulPlain(&ct, pt)
				wantB, wantA := rq.NewPoly(level), rq.NewPoly(level)
				rq.MulPoly(level, ct.B, pt, wantB)
				rq.MulPoly(level, ct.A, pt, wantA)
				if got.Level != level || !rq.Equal(level, got.B, wantB) || !rq.Equal(level, got.A, wantA) {
					t.Fatalf("level %d: MulPlain differs from the two-MulPoly product", level)
				}
				rq.Release(got.B)
				rq.Release(got.A)
			}
		})
	}
}

// zeroPoly returns a zero polynomial with the given channel count and degree,
// independent of any ring.
func zeroPoly(channels, n int) *ring.Poly {
	p := &ring.Poly{Coeffs: make([][]uint64, channels)}
	for i := range p.Coeffs {
		p.Coeffs[i] = make([]uint64, n)
	}
	return p
}

// FuzzCiphertextUnmarshal drives the shared ciphertext decoder with hostile
// bytes under both metadata widths: none (BGV, BFV) and the one scale word
// (CKKS). An accepted input must have B, A and Level agreeing in level and
// ring degree, and must re-marshal to the identical bytes.
func FuzzCiphertextUnmarshal(f *testing.F) {
	valid := rlwe.Ciphertext{B: zeroPoly(2, 16), A: zeroPoly(2, 16), Level: 1}
	withScale, err := valid.MarshalMeta([]uint64{1 << 40})
	if err != nil {
		f.Fatal(err)
	}
	bare, err := valid.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	mixed, err := (&rlwe.Ciphertext{B: zeroPoly(2, 8), A: zeroPoly(2, 16), Level: 1}).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(withScale, true)
	f.Add([]byte{}, true)
	f.Add(withScale[:20], true)
	f.Add(bare, false)
	f.Add(mixed, false)
	f.Fuzz(func(t *testing.T, data []byte, scaled bool) {
		var meta []uint64
		if scaled {
			meta = make([]uint64, 1)
		}
		var ct rlwe.Ciphertext
		if err := ct.UnmarshalMeta(data, meta); err != nil {
			return
		}
		if ct.B.Level() != ct.Level || ct.A.Level() != ct.Level {
			t.Fatalf("accepted level %d with poly channels (%d, %d)", ct.Level, ct.B.Level(), ct.A.Level())
		}
		for i := 0; i <= ct.Level; i++ {
			if len(ct.B.Coeffs[i]) != len(ct.A.Coeffs[0]) || len(ct.A.Coeffs[i]) != len(ct.A.Coeffs[0]) {
				t.Fatalf("accepted channel %d with degrees %d and %d", i, len(ct.B.Coeffs[i]), len(ct.A.Coeffs[i]))
			}
		}
		again, err := ct.MarshalMeta(meta)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatal("accepted input does not re-marshal to the same bytes")
		}
	})
}
