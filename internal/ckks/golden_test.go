package ckks

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"alchemist/internal/ring"
)

// TestSchemeOutputsGolden pins the exact bytes of the keys, of the
// keyswitching evaluator outputs, of a fresh encryption, of the key-free
// ciphertext arithmetic and of a decryption at fixed seeds on TestParams.
// Refactors must leave every key and ciphertext byte-identical; the
// approximate-decryption tests cannot see a change that stays within the
// noise bound, these hashes can.
//
// The hashes were recorded on amd64. Other architectures may contract the
// float noise sampling and encoding into fused multiply-adds, which changes
// the low bits legitimately, so the pin runs on amd64 only.
func TestSchemeOutputsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden hashes are recorded on amd64")
	}
	params := TestParams()
	lt, err := NewLinearTransformFromMatrix(randomMatrix(8, 16, 61), params.Slots())
	if err != nil {
		t.Fatal(err)
	}
	f := newLTFixture(t, params, append(lt.Rotations(), 1, 2), 71)
	level := params.MaxLevel()
	ct1 := f.encrypt(t, ltInput(params.Slots(), 16, 72), level)
	ct2 := f.encrypt(t, ltInput(params.Slots(), 16, 73), level)

	got := map[string]string{
		"relin-key":  hashSwitchingKey(t, f.ev.eks.Rlk),
		"galois-key": hashSwitchingKey(t, f.ev.eks.Rot[f.ctx.RQ.GaloisElementForRotation(1)]),
	}
	prod, err := f.ev.MulRelin(ct1, ct2)
	if err != nil {
		t.Fatal(err)
	}
	got["mulrelin"] = hashCiphertexts(t, prod)
	rot, err := f.ev.Rotate(ct1, 1)
	if err != nil {
		t.Fatal(err)
	}
	got["rotate"] = hashCiphertexts(t, rot)
	hoisted, err := f.ev.RotateHoisted(ct1, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	got["rotate-hoisted"] = hashCiphertexts(t, hoisted[1], hoisted[2])
	y, err := f.ev.EvalLinearTransform(ct1, lt, f.enc)
	if err != nil {
		t.Fatal(err)
	}
	got["linear-transform"] = hashCiphertexts(t, y)

	// The key-free ciphertext arithmetic and a fresh encryption, drawn after
	// every input above so the earlier hashes keep their streams.
	top := params.MaxLevel()
	pt, err := f.enc.Encode(ltInput(params.Slots(), 16, 74), top, params.Scale)
	if err != nil {
		t.Fatal(err)
	}
	got["encrypt"] = hashCiphertexts(t, f.et.Encrypt(pt, top, params.Scale))
	low, err := f.ev.DropLevel(ct2, 1)
	if err != nil {
		t.Fatal(err)
	}
	got["drop-level"] = hashCiphertexts(t, low)
	sum, err := f.ev.Add(ct1, ct2)
	if err != nil {
		t.Fatal(err)
	}
	got["add"] = hashCiphertexts(t, sum)
	diff, err := f.ev.Sub(low, ct1)
	if err != nil {
		t.Fatal(err)
	}
	got["sub"] = hashCiphertexts(t, diff)
	got["mulplain"] = hashCiphertexts(t, f.ev.MulPlain(ct1, pt, params.Scale))
	got["decrypt-poly"] = hashPolys(t, f.dt.DecryptPoly(ct1))

	want := map[string]string{
		"relin-key":        "17c7030e9238656e08913cf1b8668779c01b13869f66267c4b8551ef83b72e5b",
		"galois-key":       "850548b4278564cb5c0f74e2d7e3c16b7508faa58637ea73f0ade83e038308c6",
		"mulrelin":         "5287c09bd176bcb52dff5ffcd36bcc4c83f8f901298dd00c9997a29b88fa0431",
		"rotate":           "d5ecf32a5a9eda90dd087a5d4b7bb580d0b0fa39b13730b1f5e5a21f5ef14a87",
		"rotate-hoisted":   "84d7facdc051a4c9d9546a660c0800d3672b511571a930645307c139a0862a94",
		"linear-transform": "cc8a733285708d495ffb93aad4469b4c8f2edc18abe3ea3072a1aeb6e0390727",
		"encrypt":          "63cd9293814c17ebd3299c4cf6c03bb785f3a01a0eac14a45d691759185a9e19",
		"drop-level":       "72ce4532359edd5cf0214094c7345060533b38c0b84fe23588b9b4df0b91323a",
		"add":              "a617fca1fc5d3ccdd020cda823b94be7e52f243ac8ec61faed675bbf7d320341",
		"sub":              "589983a4526368ee9876019f5a89c0c507f6c9b98b829b20f76f40027d1c9558",
		"mulplain":         "503f537421082605fdbd0a9e66d2eeb3893aba2bfa225da1c6b30ddb0b44e0c7",
		"decrypt-poly":     "94c0fb73b6ec5a7f41ed9a3b327b5d2d212dc2ea4c9f616f7dba3dff332caaac",
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

func hashCiphertexts(t *testing.T, cts ...*Ciphertext) string {
	t.Helper()
	h := sha256.New()
	for _, ct := range cts {
		b, err := ct.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
