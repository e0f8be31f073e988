package rlwe_test

import (
	"testing"

	"alchemist/internal/bgv"
	"alchemist/internal/rlwe"
)

// TestNewContextRejectsBadT checks that the core refuses a plaintext
// modulus its divisions cannot keep: 0, or one that shares a factor with a
// ciphertext or special modulus (here equals one).
func TestNewContextRejectsBadT(t *testing.T) {
	bp := bgv.TestParams()
	base := rlwe.Parameters{LogN: bp.LogN, Q: bp.Q, P: bp.P, Dnum: bp.Dnum, T: bp.T}
	if _, err := rlwe.NewContext(base); err != nil {
		t.Fatalf("valid t=%d rejected: %v", base.T, err)
	}
	for name, tm := range map[string]uint64{"zero": 0, "q_1": bp.Q[1], "p_0": bp.P[0]} {
		p := base
		p.T = tm
		if _, err := rlwe.NewContext(p); err == nil {
			t.Errorf("%s: t=%d accepted", name, tm)
		}
	}
}
