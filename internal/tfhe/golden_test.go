package tfhe

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"testing"
)

// TestBootstrapGolden pins the exact words of the level-0 LWE key, the
// TRLWE key and the blind-rotation accumulator at a fixed seed on
// FastTestParams. Changes to key generation or to the bootstrap pipeline
// around the FFT blind rotation must leave these bytes identical; the
// decrypt-level tests cannot see a change that stays within the noise
// budget, these hashes can.
//
// The hashes were recorded on amd64. Other architectures may contract the
// float noise sampling and the FFT butterflies into fused multiply-adds,
// which changes the low bits legitimately, so the pin runs on amd64 only.
func TestBootstrapGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden hashes are recorded on amd64")
	}
	s, err := NewScheme(FastTestParams(), 4242)
	if err != nil {
		t.Fatal(err)
	}
	p := s.Params
	got := map[string]string{
		"lwe-key":   hashWords(s.LweKey.S),
		"trlwe-key": hashWords(s.TrlweKey.S...),
	}
	tv := s.GateTestVector(TorusFromDouble(0.125))
	for _, in := range []struct {
		name string
		seed uint32
		sign bool
	}{
		{"blind-rotate/seed=1", 1, true},
		{"blind-rotate/seed=0xdeadbeef", 0xdeadbeef, false},
	} {
		abar := make(IntPoly, p.NLwe+1)
		modSwitchInto(fuzzCt(s, in.seed, in.sign), 2*p.N, abar)
		acc := NewTrlweSample(p.N, p.K)
		scr := s.borrowFFTScratch()
		s.blindRotateFFTOne(abar, tv, acc, scr)
		s.releaseFFTScratch(scr)
		got[in.name] = hashWords(append(acc.A, acc.B)...)
	}

	want := map[string]string{
		"lwe-key":                      "513a05c6a30e7ef7357c23345d61965ad00e7b3489a93e0d49d3b33c119a3c64",
		"trlwe-key":                    "9823ef6e11ba2779e7ad60d5f131912c1a9c81ce29ebe8ae1c8473fe6d7bf4ed",
		"blind-rotate/seed=1":          "1adab55bc3d8945f121e066de29b23a5b6666b43702ccb2e24a87ef273d704ad",
		"blind-rotate/seed=0xdeadbeef": "ef36080e4e546a7e1c3eb6bea615c4bbcd0e54150189c6b7a7d5307de3fb830b",
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: sha256 %s, want %s", name, got[name], w)
		}
	}
}

// hashWords returns the SHA-256 of the little-endian 32-bit words of polys.
func hashWords[T ~[]E, E int32 | Torus](polys ...T) string {
	h := sha256.New()
	for _, poly := range polys {
		for _, v := range poly {
			h.Write(binary.LittleEndian.AppendUint32(nil, uint32(v)))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
