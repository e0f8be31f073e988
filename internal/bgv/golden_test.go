package bgv

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"alchemist/internal/ring"
)

// TestSchemeOutputsGolden pins the exact bytes of the keys, of the
// keyswitching evaluator outputs (BGV MulRelin, ApplyGalois and BFV MulBFV),
// of the BGV Rescale, of fresh BGV and BFV encryptions, of the key-free ciphertext arithmetic
// and of a decryption at fixed seeds on TestParams. BGV arithmetic is exact mod t, so a change
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

	// The key-free ciphertext arithmetic and fresh encryptions, drawn after
	// every input above so the earlier hashes keep their streams.
	got["encrypt"] = hashCiphertext(t, h.encrypt(t, randSlots(n, tm, 115)))
	got["add"] = hashCiphertext(t, h.ev.Add(ct1, ct2))
	got["sub"] = hashCiphertext(t, h.ev.Sub(ct1, ct2))
	pt, err := h.enc.Encode(randSlots(n, tm, 116), h.ctx.Params.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}
	got["mulplain"] = hashCiphertext(t, h.ev.MulPlain(ct1, pt))
	got["decrypt-poly"] = hashPolys(t, h.dt.DecryptPoly(ct1))
	bfvCt := h.encryptBFV(t, randSlots(n, tm, 117))
	got["bfv-encrypt"] = hashCiphertext(t, &Ciphertext{B: bfvCt.B, A: bfvCt.A, Level: bfvCt.Level})
	bfvSum := h.ev.AddBFV(bfvCt, bfvCt)
	got["bfv-add"] = hashCiphertext(t, &Ciphertext{B: bfvSum.B, A: bfvSum.A, Level: bfvSum.Level})
	bfvProd := h.ev.MulPlainBFV(bfvCt, pt)
	got["bfv-mulplain"] = hashCiphertext(t, &Ciphertext{B: bfvProd.B, A: bfvProd.A, Level: bfvProd.Level})
	// The modulus switch draws nothing, so it goes last.
	rs, err := h.ev.Rescale(ct1)
	if err != nil {
		t.Fatal(err)
	}
	got["rescale"] = hashCiphertext(t, rs)

	want := map[string]string{
		"relin-key":    "b77ebbc52162b25a7fe28a908ce3a85a3b6097adc67a2d75d6f16879dc669132",
		"galois-key":   "9deb61b77c298bd4d3cb0b9c277edc283034ae7257521d6ce9a907978df74811",
		"mulrelin":     "486ca85bed7c2e97e7eaad882215d330c41683912b7d40cfe57f10a2e6db0cd8",
		"apply-galois": "eb3472cf7c658507ecf1dbb982d70bb6516d98bedb29ee5d1dfcddaf281f0774",
		"bfv-mulrelin": "7455fefb83b457ad29070b12371cd915ae4c55d7aad83863cecd4ebe93c5e195",
		"encrypt":      "3871a174a2b87836c4230f9c66153c919568e166ba8da5c92d00f8057074b943",
		"add":          "8edfeb59332a4420d46a0d273cfb3eaf3926cfd70cd63213b9c3f0b288d672f8",
		"sub":          "299e26d924aab9601b550c85a36d7835729bd01d1141ec3e7a2827e50df6ca03",
		"mulplain":     "d2e0b7dabd1f4a752e8649fc0e962d81b6a3f33e2897b1203e7c4cd7b8004340",
		"decrypt-poly": "1caf15b90228bd1bc10287dedc075390e5407968c7a7dd813bf023c2c9fd2674",
		"bfv-encrypt":  "7e0a3cbd8c71f50c05a6ea96b73179e1b1f074a0989e2da4144cda334cb19b69",
		"bfv-add":      "33051b1d6f9d2bddecdc20295e2952fa83a9c5dc16b93c98c6a53a5545c6ed75",
		"bfv-mulplain": "c517605486236248e52ee9927ab0bafea9e17a9e346934e65786df3934d5cf1a",
		"rescale":      "b45250bc54ae183308009afe80cc5b1e527845ab141e704ab322457a63d640fc",
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: sha256 %s, want %s", name, got[name], w)
		}
	}
}

func hashSwitchingKey(t *testing.T, swk *SwitchingKey) string {
	t.Helper()
	var polys []*ring.Poly
	for g := range swk.BQ {
		polys = append(polys, swk.BQ[g], swk.AQ[g], swk.BP[g], swk.AP[g])
	}
	return hashPolys(t, polys...)
}

func hashPolys(t *testing.T, polys ...*ring.Poly) string {
	t.Helper()
	h := sha256.New()
	for _, p := range polys {
		b, err := p.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
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
