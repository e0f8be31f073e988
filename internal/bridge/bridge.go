// Package bridge implements cross-scheme ciphertext switching in the
// Chimera/Pegasus style [5, 6 in the paper]: values computed under the
// arithmetic scheme (CKKS) are converted into logic-scheme (TFHE) LWE
// samples, where programmable bootstrapping can evaluate non-polynomial
// functions — sign, comparison, max — that arithmetic FHE cannot. This is
// exactly the hybrid workload that motivates Alchemist's unified
// architecture.
//
// Pipeline (ToLWE):
//
//  1. SlotToCoeff: homomorphically apply the encoding matrix V so each
//     slot value moves into a polynomial coefficient. The transform is a
//     double-hoisted baby-step giant-step sum (ckks.EvalLinearTransform):
//     V's 256 diagonals at N=2^9 split into 16 baby steps by 16 giant
//     steps. One digit decomposition of the input serves the 15 non-zero
//     baby steps, each giant step's plaintext products are summed over Q·P,
//     and each of the 15 non-zero giant steps pays one ModDown pair, one
//     decomposition and one keyswitch. So the bridge holds 30 rotation keys
//     instead of 255 and runs 30 keyswitches per ToLWE. V's plaintexts are
//     encoded on the first ToLWE and cached in the transform, which
//     concurrent ToLWE calls share.
//  2. Level drop to the last CKKS modulus q0.
//  3. LWE extraction: coefficient j of an RLWE ciphertext is an LWE sample
//     of dimension N under the CKKS ring key.
//  4. Modulus switch q0 → 2^32 (the discretized torus).
//  5. TFHE key switch from the CKKS ring key to the TFHE level-0 key,
//     using a bridge key-switching key.
//
// The resulting samples carry the slot values scaled to scale/q0 of the
// torus; Sign() then multiplies the sample by signGain and runs one
// programmable bootstrap to binarize.
package bridge

import (
	"context"
	"fmt"
	"math"

	"alchemist/internal/ckks"
	"alchemist/internal/ring"
	"alchemist/internal/tfhe"
)

// Bridge converts CKKS ciphertexts into TFHE LWE samples.
type Bridge struct {
	ckksCtx *ckks.Context
	tf      *tfhe.Scheme
	enc     *ckks.Encoder
	ev      *ckks.Evaluator
	ltS2C   *ckks.LinearTransform
	ksk     [][]*tfhe.LweSample // CKKS ring key (dim N) → TFHE level-0 key
	boot    *tfhe.Bootstrapper  // pinned sign bootstrapper shared by Sign/Compare
}

// New builds a bridge. It needs the CKKS secret (to derive the bridge
// key-switching key — generated once at setup, like any evaluation key) and
// generates the SlotToCoeff rotation keys.
func New(ctx *ckks.Context, kg *ckks.KeyGenerator, sk *ckks.SecretKey, tf *tfhe.Scheme) (*Bridge, error) {
	n := ctx.Params.Slots()
	v, _ := ckks.EncodingMatrices(ctx)
	ltS2C, err := ckks.NewLinearTransformFromMatrix(v, n)
	if err != nil {
		return nil, err
	}
	eks := kg.GenEvaluationKeySet(sk, ltS2C.Rotations(), false)

	// The CKKS secret's signed coefficients form the source LWE key.
	src := make([]int32, ctx.Params.N())
	q0 := ctx.Params.Q[0]
	for j := range src {
		src[j] = int32(ring.SignedCoeff(sk.Q.Coeffs[0][j], q0))
	}
	boot, err := tf.Bootstrapper(
		tfhe.WithTestVector(tf.GateTestVector(tfhe.TorusFromDouble(0.125))))
	if err != nil {
		return nil, err
	}
	return &Bridge{
		ckksCtx: ctx,
		tf:      tf,
		enc:     ckks.NewEncoder(ctx),
		ev:      ckks.NewEvaluator(ctx, eks),
		ltS2C:   ltS2C,
		ksk:     tf.GenKeySwitchKey(src),
		boot:    boot,
	}, nil
}

// SetWorkers fans the worker count out to the bridge's CKKS context (and
// through it to every ring kernel the SlotToCoeff evaluation and the
// extraction run). The TFHE side is already streamed by its own pipeline
// (tfhe.Bootstrapper); its parallelism is configured there.
func (b *Bridge) SetWorkers(n int) { b.ckksCtx.SetWorkers(n) }

// Workers reports the configured worker count (minimum 1).
func (b *Bridge) Workers() int { return b.ckksCtx.Workers() }

// TorusScale returns the factor mapping slot values to torus phases for a
// ciphertext about to be extracted: value·Scale/q0 of the torus.
func (b *Bridge) TorusScale(ct *ckks.Ciphertext) float64 {
	return ct.Scale / float64(b.ckksCtx.Params.Q[0])
}

// ToLWE converts the first `count` slots of a CKKS ciphertext into TFHE
// level-0 LWE samples whose phases are slotValue·TorusScale of the torus.
func (b *Bridge) ToLWE(ct *ckks.Ciphertext, count int) ([]*tfhe.LweSample, error) {
	ctx := b.ckksCtx
	n := ctx.Params.N()
	slots := ctx.Params.Slots()
	if count > slots {
		return nil, fmt.Errorf("bridge: %d samples exceed %d slots", count, slots)
	}
	// SlotToCoeff, then drop to the last modulus.
	s2c, err := b.ev.EvalLinearTransform(ct, b.ltS2C, b.enc)
	if err != nil {
		return nil, err
	}
	s2c, err = b.ev.DropLevel(s2c, 0)
	if err != nil {
		return nil, err
	}
	q0 := ctx.Params.Q[0]
	toTorus := func(v uint64) tfhe.Torus {
		// Round v·2^32/q0 to the discretized torus.
		return tfhe.Torus(math.Round(float64(v) / float64(q0) * 4294967296.0))
	}
	out := make([]*tfhe.LweSample, count)
	for j := 0; j < count; j++ {
		// LWE extraction of coefficient j: phase_j = B_j + Σ_i A'_i·s_i with
		// A'_i = A_{j-i} (negacyclic sign for i > j). TFHE phases subtract
		// the mask, so negate.
		lwe := tfhe.NewLweSample(n)
		bCoeffs := s2c.B.Coeffs[0]
		aCoeffs := s2c.A.Coeffs[0]
		for i := 0; i <= j; i++ {
			lwe.A[i] = -toTorus(aCoeffs[j-i])
		}
		for i := j + 1; i < n; i++ {
			lwe.A[i] = toTorus(aCoeffs[n+j-i])
		}
		lwe.B = toTorus(bCoeffs[j])
		switched, err := b.tf.KeySwitchWith(b.ksk, lwe)
		if err != nil {
			return nil, err
		}
		out[j] = switched
	}
	return out, nil
}

// signGain widens a bridged phase before the sign bootstrap. The bridge
// puts values at value·TorusScale ≈ value/8 of the torus, so a decision
// margin of 0.09 on the value is 0.011 of the torus: about 3.2σ of the
// sign bootstrap's own modulus-switch noise (σ ≈ 0.0035 at
// tfhe.FastTestParams), which flipped 2–6 signs in 6000 there. Three
// times the phase keeps every sign with |value·TorusScale| < 1/6 on its
// side of the torus and lifts that margin to about 9.6σ; the gain costs a
// copy and one multiply per mask word.
const signGain = 3

// Sign binarizes a bridged sample with one programmable bootstrap: the
// output is a gate-encoded TFHE boolean (true ⇔ the CKKS value was > 0).
// The sign is exact for |value·TorusScale| < 1/6, outside the bootstrap's
// noise band around 0. All signs share the bridge's pinned Bootstrapper,
// so the sign test vector and scratch arenas are built once at bridge
// setup.
func (b *Bridge) Sign(c *tfhe.LweSample) (*tfhe.LweSample, error) {
	return b.sign(c.Copy())
}

// Compare returns an encrypted boolean for x > y on bridged samples (sign
// of the difference, exact for |x − y|·TorusScale < 1/6).
func (b *Bridge) Compare(x, y *tfhe.LweSample) (*tfhe.LweSample, error) {
	d := x.Copy()
	d.SubTo(y)
	return b.sign(d)
}

// sign scales d, which it owns, by signGain and bootstraps it.
func (b *Bridge) sign(d *tfhe.LweSample) (*tfhe.LweSample, error) {
	d.MulScalarTo(signGain)
	return b.boot.Run(context.Background(), d)
}
