package ckks

import "testing"

func benchEvaluator(b *testing.B) (*Context, *Evaluator, *Ciphertext) {
	b.Helper()
	ctx, err := NewContext(TestParams())
	if err != nil {
		b.Fatal(err)
	}
	kg := NewKeyGenerator(ctx, 1)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	eks := kg.GenEvaluationKeySet(sk, []int{1, 2, 3, 4, 5, 6, 7, 8}, false)
	enc := NewEncoder(ctx)
	et := NewEncryptor(ctx, pk, 2)
	z := make([]complex128, ctx.Params.Slots())
	for i := range z {
		z[i] = complex(float64(i%5)/5, 0)
	}
	level := ctx.Params.MaxLevel()
	pt, err := enc.Encode(z, level, ctx.Params.Scale)
	if err != nil {
		b.Fatal(err)
	}
	return ctx, NewEvaluator(ctx, eks), et.Encrypt(pt, level, ctx.Params.Scale)
}

func BenchmarkKeySwitchFused(b *testing.B) {
	ctx, ev, ct := benchEvaluator(b)
	level := ct.Level
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ksB, ksA := ev.KeySwitchFused(level, ct.A, ev.eks.Rlk)
		ctx.RQ.Release(ksB)
		ctx.RQ.Release(ksA)
	}
}

func BenchmarkRotateHoisted8(b *testing.B) {
	ctx, ev, ct := benchEvaluator(b)
	steps := []int{1, 2, 3, 4, 5, 6, 7, 8}
	var outs [8]*Ciphertext
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ev.RotateHoistedInto(ct, steps, outs[:]); err != nil {
			b.Fatal(err)
		}
		for _, out := range outs {
			ctx.Recycle(out)
		}
	}
}
