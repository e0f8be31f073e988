package bgv

import "testing"

// BenchmarkEncrypt times Encrypt at bgv-tally's shape: N=2^12, t=65537, five
// 45-bit chain limbs, encrypted at the top level. Each output goes back to
// the ring arena, as a request loop that releases its inputs does.
func BenchmarkEncrypt(b *testing.B) {
	params, err := GenParams(12, 4, 5, 2, 45, 46, 65537)
	if err != nil {
		b.Fatal(err)
	}
	ctx, err := NewContext(params)
	if err != nil {
		b.Fatal(err)
	}
	kg := NewKeyGenerator(ctx, 1)
	et := NewEncryptor(ctx, kg.GenPublicKey(kg.GenSecretKey()), 2)
	level := params.MaxLevel()
	pt, err := NewEncoder(ctx).Encode(randSlots(params.N(), params.T, 3), level)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ct := et.Encrypt(pt, level)
		ctx.RQ.Release(ct.B)
		ctx.RQ.Release(ct.A)
	}
}
