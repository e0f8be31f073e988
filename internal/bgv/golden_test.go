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
		"relin-key":    "7311c10c7b671bcf84cf627dd1503fb3f05b8ef24e40cbc8bc133072b058b2d5",
		"galois-key":   "14fa759670788cbdae75f212d771e1ed89e922e2671c0b908b6768ca784251a8",
		"mulrelin":     "86ec880bae6973d84b91cb39f2f4ddc9b44412c1691790fbe550335cc93b3189",
		"apply-galois": "6b04d3ff6e8fd2627227da4aa5a302fa452648ce0d2aecb05af15b750921f140",
		"bfv-mulrelin": "f7b4def85266ae56887c1ab70f35b1aa243ff9b1932dee1a6afdd4ed929bac35",
		"encrypt":      "1ba27f79dd438ac16bbe3d93dcdfb8252db834ed64cc57c783f1aca786961215",
		"add":          "e547d86d5715e3434cd90d8c34df9c30dfedd03451136f998d955fd08f238bd4",
		"sub":          "55dea7492f7860ae0c30cef5f1cd84c55fc927e07dcaaac5448aa97b57452319",
		"mulplain":     "287b6ed3abaa29a214ec7590540653705a019d2d5219bfe95873f09ffb5495ec",
		"decrypt-poly": "ecf0f952fa27fc3d46683bc3c9b9b2a4554e1e611d621497fbf5f4621bb28c00",
		"bfv-encrypt":  "4d8ff71c285bbd3c2c63704b360064b48296716d740da169042c5265ca41e3fc",
		"bfv-add":      "2504fc52d62426df3bf1327e083021009da0a20629a6593c20247b220b60dc72",
		"bfv-mulplain": "20e696ec806bc094a1c9c700ca64c880f03a15fe12b67b237520ae0837f10ac5",
		"rescale":      "4689c1b8f039df6a18806e1f38a58040c6f13c8605bd6572778cc9b644057714",
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
