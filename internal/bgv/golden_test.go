package bgv

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"alchemist/internal/ring"
)

// TestSchemeOutputsGolden pins the exact bytes of the keys and of the
// keyswitching evaluator outputs (BGV MulRelin, ApplyGalois and BFV MulBFV)
// at fixed seeds on TestParams. BGV arithmetic is exact mod t, so a change
// that keeps the plaintext but moves the noise passes every decryption
// test; these hashes catch it.
//
// The hashes were recorded on amd64. Other architectures may contract the
// float noise sampling into fused multiply-adds, which changes the sampled
// errors legitimately, so the pin runs on amd64 only.
func TestSchemeOutputsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden hashes are recorded on amd64")
	}
	h := newHarness(t)
	n, tm := h.ctx.Params.N(), h.ctx.Params.T
	k := h.ctx.RQ.GaloisElementForRotation(1)
	gk := h.kg.GenGaloisKey(k, h.sk)
	ct1 := h.encrypt(t, randSlots(n, tm, 111))
	ct2 := h.encrypt(t, randSlots(n, tm, 112))

	got := map[string]string{
		"relin-key":  hashSwitchingKey(t, h.rlk),
		"galois-key": hashSwitchingKey(t, gk),
	}
	prod, err := h.ev.MulRelin(ct1, ct2)
	if err != nil {
		t.Fatal(err)
	}
	got["mulrelin"] = hashCiphertext(t, prod)
	rot, err := h.ev.ApplyGalois(ct1, k, gk)
	if err != nil {
		t.Fatal(err)
	}
	got["apply-galois"] = hashCiphertext(t, rot)
	bfv, err := h.ev.MulBFV(h.encryptBFV(t, randSlots(n, tm, 113)), h.encryptBFV(t, randSlots(n, tm, 114)))
	if err != nil {
		t.Fatal(err)
	}
	got["bfv-mulrelin"] = hashCiphertext(t, &Ciphertext{B: bfv.B, A: bfv.A, Level: bfv.Level})

	want := map[string]string{
		"relin-key":    "7311c10c7b671bcf84cf627dd1503fb3f05b8ef24e40cbc8bc133072b058b2d5",
		"galois-key":   "14fa759670788cbdae75f212d771e1ed89e922e2671c0b908b6768ca784251a8",
		"mulrelin":     "7652083c99e8e86025ff8b576fe622f04aca07b4d5976bf2ae0a7ac5c873cb7d",
		"apply-galois": "624cfda5ee9c5e27af8fffe9b8e6b603b96b242b5d5f37dcec5fd9ec97fb13af",
		"bfv-mulrelin": "6dbd396a51c55b700a767f038f18a9b76bf609031156a05100368ebb9ec485f5",
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: sha256 %s, want %s", name, got[name], w)
		}
	}
}

func hashSwitchingKey(t *testing.T, swk *SwitchingKey) string {
	t.Helper()
	h := sha256.New()
	for g := range swk.BQ {
		for _, p := range []*ring.Poly{swk.BQ[g], swk.AQ[g], swk.BP[g], swk.AP[g]} {
			b, err := p.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			h.Write(b)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func hashCiphertext(t *testing.T, ct *Ciphertext) string {
	t.Helper()
	b, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
