package ring

// Kernel-equivalence tests for the vector butterfly kernels: every assembly
// kernel is pinned bit-identical to a scalar model that replays its exact
// dataflow, on random lazy-domain inputs AND adversarial corners (all lanes
// at the 4q−1 / 2q−1 domain maxima, alternating extremes, maximal twiddles
// w = q−1). The AVX2 models reuse modmath.MulModShoupLazy; the AVX512-IFMA
// models recompute the base-2^52 madd product exactly (mulLazy52Model), so
// even the tier whose intermediates legitimately differ from the base-2^64
// scalar path by multiples of q is pinned bit-for-bit against a independent
// reference. Full-transform tests then pin nttLazyVec/inttLazyVec against
// nttLazyScalar/inttLazyScalar — the end-to-end bit-identity the public API
// promises — across even/odd log N and the q ≷ 2^50 tier boundary.

import (
	"math/bits"
	"math/rand"
	"testing"

	"alchemist/internal/modmath"
)

// lazyMulFn abstracts the two lazy Shoup product tiers so one model body
// serves both: base-2^64 (AVX2, ws = ShoupPrecomp) and base-2^52 (IFMA,
// ws = shoup52).
type lazyMulFn func(a, w, ws, q uint64) uint64

func mulLazy64Model(a, w, ws, q uint64) uint64 {
	return modmath.MulModShoupLazy(a, w, ws, q)
}

// mulLazy52Model replays the VPMADD52 dataflow exactly: qHat is the high 52
// bits of the 104-bit product a·w52, and the result is the mod-2^52
// difference of the two low-52 products — the value the IFMA kernels
// compute lane-wise. For a < 4q ≤ 2^52 the result lies in [0, 2q).
func mulLazy52Model(a, w, w52, q uint64) uint64 {
	const mask52 = 1<<52 - 1
	hi, lo := bits.Mul64(a&mask52, w52&mask52)
	qHat := hi<<12 | lo>>52
	return (a*w - qHat*q) & mask52
}

// Scalar models of the kernel dataflows. Group/twiddle indexing mirrors the
// kernel contracts documented in nttkern_amd64.go.

func modelNTTSingle(x0, x1 []uint64, w, ws, q uint64, mul lazyMulFn) {
	twoQ := 2 * q
	for j := range x0 {
		u := condSub(x0[j], twoQ)
		v := mul(x1[j], w, ws, q)
		x0[j], x1[j] = u+v, u+twoQ-v
	}
}

func modelNTTPair(p, wA, wAs, wB, wBs []uint64, t int, q uint64, mul lazyMulFn) {
	twoQ := 2 * q
	for g := range wA {
		x := p[4*g*t:]
		for j := 0; j < t; j++ {
			a, b, c, d := x[j], x[j+t], x[j+2*t], x[j+3*t]
			u0 := condSub(a, twoQ)
			v0 := mul(c, wA[g], wAs[g], q)
			a, c = u0+v0, u0+twoQ-v0
			u1 := condSub(b, twoQ)
			v1 := mul(d, wA[g], wAs[g], q)
			b, d = u1+v1, u1+twoQ-v1
			u0 = condSub(a, twoQ)
			v0 = mul(b, wB[2*g], wBs[2*g], q)
			x[j], x[j+t] = u0+v0, u0+twoQ-v0
			u1 = condSub(c, twoQ)
			v1 = mul(d, wB[2*g+1], wBs[2*g+1], q)
			x[j+2*t], x[j+3*t] = u1+v1, u1+twoQ-v1
		}
	}
}

func modelNTTTail(p, wA, wAs, wB, wBs []uint64, q uint64, mul lazyMulFn) {
	twoQ := 2 * q
	for g := range wA {
		j := 4 * g
		a, b, c, d := p[j], p[j+1], p[j+2], p[j+3]
		u0 := condSub(a, twoQ)
		v0 := mul(c, wA[g], wAs[g], q)
		a, c = u0+v0, u0+twoQ-v0
		u1 := condSub(b, twoQ)
		v1 := mul(d, wA[g], wAs[g], q)
		b, d = u1+v1, u1+twoQ-v1
		u0 = condSub(a, twoQ)
		v0 = mul(b, wB[2*g], wBs[2*g], q)
		p[j] = condSub(condSub(u0+v0, twoQ), q)
		p[j+1] = condSub(condSub(u0+twoQ-v0, twoQ), q)
		u1 = condSub(c, twoQ)
		v1 = mul(d, wB[2*g+1], wBs[2*g+1], q)
		p[j+2] = condSub(condSub(u1+v1, twoQ), q)
		p[j+3] = condSub(condSub(u1+twoQ-v1, twoQ), q)
	}
}

func modelINTTHead(p, wA, wAs, wB, wBs []uint64, q uint64, mul lazyMulFn) {
	twoQ := 2 * q
	for g := range wB {
		j := 4 * g
		a, b, c, d := p[j], p[j+1], p[j+2], p[j+3]
		sa := condSubMask(a+b, twoQ)
		da := mul(a+twoQ-b, wA[2*g], wAs[2*g], q)
		sc := condSubMask(c+d, twoQ)
		dc := mul(c+twoQ-d, wA[2*g+1], wAs[2*g+1], q)
		p[j] = condSubMask(sa+sc, twoQ)
		p[j+1] = condSubMask(da+dc, twoQ)
		p[j+2] = mul(sa+twoQ-sc, wB[g], wBs[g], q)
		p[j+3] = mul(da+twoQ-dc, wB[g], wBs[g], q)
	}
}

func modelINTTPair(p, wA, wAs, wB, wBs []uint64, t int, q uint64, mul lazyMulFn) {
	twoQ := 2 * q
	for g := range wB {
		x := p[4*g*t:]
		for j := 0; j < t; j++ {
			a, b, c, d := x[j], x[j+t], x[j+2*t], x[j+3*t]
			sa := condSubMask(a+b, twoQ)
			da := mul(a+twoQ-b, wA[2*g], wAs[2*g], q)
			sc := condSubMask(c+d, twoQ)
			dc := mul(c+twoQ-d, wA[2*g+1], wAs[2*g+1], q)
			x[j] = condSubMask(sa+sc, twoQ)
			x[j+t] = condSubMask(da+dc, twoQ)
			x[j+2*t] = mul(sa+twoQ-sc, wB[g], wBs[g], q)
			x[j+3*t] = mul(da+twoQ-dc, wB[g], wBs[g], q)
		}
	}
}

func modelINTTLastEven(p []uint64, wA0, wA0s, wA1, wA1s, ni, nis, w, ws, q uint64, mul lazyMulFn) {
	twoQ := 2 * q
	t := len(p) / 4
	x0, x1, x2, x3 := p[0:t], p[t:2*t], p[2*t:3*t], p[3*t:4*t]
	for j := range x0 {
		a, b, c, d := x0[j], x1[j], x2[j], x3[j]
		sa := condSubMask(a+b, twoQ)
		da := mul(a+twoQ-b, wA0, wA0s, q)
		sc := condSubMask(c+d, twoQ)
		dc := mul(c+twoQ-d, wA1, wA1s, q)
		x0[j] = condSubMask(mul(sa+sc, ni, nis, q), q)
		x1[j] = condSubMask(mul(da+dc, ni, nis, q), q)
		x2[j] = condSubMask(mul(sa+twoQ-sc, w, ws, q), q)
		x3[j] = condSubMask(mul(da+twoQ-dc, w, ws, q), q)
	}
}

func modelINTTLastOdd(x0, x1 []uint64, ni, nis, w, ws, q uint64, mul lazyMulFn) {
	twoQ := 2 * q
	for j := range x0 {
		u, v := x0[j], x1[j]
		x0[j] = condSubMask(mul(u+v, ni, nis, q), q)
		x1[j] = condSubMask(mul(u+twoQ-v, w, ws, q), q)
	}
}

// kernTestRing builds a subring for kernel tests; bits = 50 lands just under
// 2^50 (the IFMA boundary), 61 forces the AVX2-only tier.
func kernTestRing(t *testing.T, n int, bits uint64) *SubRing {
	t.Helper()
	primes, err := modmath.GenerateNTTPrimes(bits, uint64(2*n), 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSubRing(n, primes[0])
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// kernInputs yields adversarial and random coefficient vectors over the lazy
// domain [0, hi]: every lane at the domain maximum, alternating 0 / maximum,
// values straddling q and 2q, then random fills.
func kernInputs(n int, hi uint64, q uint64, rng *rand.Rand) [][]uint64 {
	mk := func(f func(i int) uint64) []uint64 {
		v := make([]uint64, n)
		for i := range v {
			v[i] = f(i)
		}
		return v
	}
	in := [][]uint64{
		mk(func(int) uint64 { return hi }),
		mk(func(i int) uint64 {
			if i&1 == 0 {
				return 0
			}
			return hi
		}),
		mk(func(i int) uint64 {
			switch i & 3 {
			case 0:
				return q - 1
			case 1:
				return q
			case 2:
				return 2*q - 1
			default:
				return hi
			}
		}),
	}
	for k := 0; k < 4; k++ {
		in = append(in, mk(func(int) uint64 { return rng.Uint64() % (hi + 1) }))
	}
	return in
}

// kernTwiddles yields twiddle vectors in [0, q): the real table prefix plus
// an adversarial vector of maximal/minimal twiddles.
func kernTwiddles(tbl []uint64, count int, q uint64) [][]uint64 {
	adv := make([]uint64, count)
	for i := range adv {
		switch i & 3 {
		case 0:
			adv[i] = q - 1
		case 1:
			adv[i] = 1
		case 2:
			adv[i] = q - 2
		default:
			adv[i] = 0
		}
	}
	return [][]uint64{append([]uint64(nil), tbl[:count]...), adv}
}

func shoupVec(w []uint64, q uint64, base52 bool) []uint64 {
	ws := make([]uint64, len(w))
	for i, x := range w {
		if base52 {
			ws[i] = shoup52(x, q)
		} else {
			ws[i] = modmath.ShoupPrecomp(x, q)
		}
	}
	return ws
}

// runKernCase executes asm and model on copies of p and compares.
func runKernCase(t *testing.T, name string, p []uint64, asm, model func(p []uint64)) {
	t.Helper()
	got := append([]uint64(nil), p...)
	want := append([]uint64(nil), p...)
	asm(got)
	model(want)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: asm differs from scalar model at %d: got %d want %d", name, i, got[i], want[i])
		}
	}
}

// TestNTTKernelsMatchScalarModels pins every AVX2 kernel bit-identical to
// its scalar model on adversarial 4q−1 / 2q−1 and random lazy-domain inputs.
func TestNTTKernelsMatchScalarModels(t *testing.T) {
	if !useNTTKern {
		t.Skip("vector NTT kernels unavailable on this CPU/build")
	}
	rng := rand.New(rand.NewSource(42))
	for _, bits := range []uint64{30, 49, 61} {
		const n = 64
		s := kernTestRing(t, n, bits)
		q := s.Q
		for _, ws := range kernTwiddles(s.psiRev, n, q) {
			w := ws
			wsh := shoupVec(w, q, false)
			for _, in := range kernInputs(n, 4*q-1, q, rng) {
				p := in
				runKernCase(t, "nttSingleVec", p,
					func(p []uint64) { nttSingleVec(p[:n/2], p[n/2:], w[1], wsh[1], q) },
					func(p []uint64) { modelNTTSingle(p[:n/2], p[n/2:], w[1], wsh[1], q, mulLazy64Model) })
				for _, tt := range []int{4, 8, 16} {
					g := n / (4 * tt)
					runKernCase(t, "nttPairVec", p,
						func(p []uint64) { nttPairVec(p, w[:g], wsh[:g], w[g:3*g], wsh[g:3*g], tt, q) },
						func(p []uint64) { modelNTTPair(p, w[:g], wsh[:g], w[g:3*g], wsh[g:3*g], tt, q, mulLazy64Model) })
				}
				g := n / 4
				runKernCase(t, "nttTailVec", p,
					func(p []uint64) { nttTailVec(p, w[:g], wsh[:g], w[g:3*g], wsh[g:3*g], q) },
					func(p []uint64) { modelNTTTail(p, w[:g], wsh[:g], w[g:3*g], wsh[g:3*g], q, mulLazy64Model) })
			}
			for _, in := range kernInputs(n, 2*q-1, q, rng) {
				p := in
				runKernCase(t, "inttHeadVec", p,
					func(p []uint64) { inttHeadVec(p, w[:n/2], wsh[:n/2], w[n/2:3*n/4], wsh[n/2:3*n/4], q) },
					func(p []uint64) {
						modelINTTHead(p, w[:n/2], wsh[:n/2], w[n/2:3*n/4], wsh[n/2:3*n/4], q, mulLazy64Model)
					})
				for _, tt := range []int{4, 8, 16} {
					g := n / (4 * tt)
					runKernCase(t, "inttPairVec", p,
						func(p []uint64) { inttPairVec(p, w[:2*g], wsh[:2*g], w[2*g:3*g], wsh[2*g:3*g], tt, q) },
						func(p []uint64) {
							modelINTTPair(p, w[:2*g], wsh[:2*g], w[2*g:3*g], wsh[2*g:3*g], tt, q, mulLazy64Model)
						})
				}
				runKernCase(t, "inttLastEvenVec", p,
					func(p []uint64) {
						inttLastEvenVec(p, w[2], wsh[2], w[3], wsh[3], s.nInv, s.nInvShoup, s.psiInvRevN, s.psiInvRevNShoup, q)
					},
					func(p []uint64) {
						modelINTTLastEven(p, w[2], wsh[2], w[3], wsh[3], s.nInv, s.nInvShoup, s.psiInvRevN, s.psiInvRevNShoup, q, mulLazy64Model)
					})
				runKernCase(t, "inttLastOddVec", p,
					func(p []uint64) {
						inttLastOddVec(p[:n/2], p[n/2:], s.nInv, s.nInvShoup, s.psiInvRevN, s.psiInvRevNShoup, q)
					},
					func(p []uint64) {
						modelINTTLastOdd(p[:n/2], p[n/2:], s.nInv, s.nInvShoup, s.psiInvRevN, s.psiInvRevNShoup, q, mulLazy64Model)
					})
			}
		}
	}
}

// TestNTTKernels52MatchScalarModels pins every AVX512-IFMA kernel
// bit-identical to its base-2^52 scalar model, including at the q → 2^50
// boundary (bits = 50 lands on the largest NTT prime below 2^50).
func TestNTTKernels52MatchScalarModels(t *testing.T) {
	if !useNTTKernIFMA {
		t.Skip("AVX512-IFMA NTT kernels unavailable on this CPU/build")
	}
	rng := rand.New(rand.NewSource(43))
	for _, bits := range []uint64{30, 49, 50} {
		const n = 128
		s := kernTestRing(t, n, bits)
		q := s.Q
		if q >= 1<<50 {
			t.Fatalf("bits=%d: prime %d not below 2^50", bits, q)
		}
		for _, ws := range kernTwiddles(s.psiRev, n, q) {
			w := ws
			w52 := shoupVec(w, q, true)
			for _, in := range kernInputs(n, 4*q-1, q, rng) {
				p := in
				runKernCase(t, "nttSingleVec52", p,
					func(p []uint64) { nttSingleVec52(p[:n/2], p[n/2:], w[1], w52[1], q) },
					func(p []uint64) { modelNTTSingle(p[:n/2], p[n/2:], w[1], w52[1], q, mulLazy52Model) })
				for _, tt := range []int{8, 16, 32} {
					g := n / (4 * tt)
					runKernCase(t, "nttPairVec52", p,
						func(p []uint64) { nttPairVec52(p, w[:g], w52[:g], w[g:3*g], w52[g:3*g], tt, q) },
						func(p []uint64) { modelNTTPair(p, w[:g], w52[:g], w[g:3*g], w52[g:3*g], tt, q, mulLazy52Model) })
				}
				g := n / 4
				runKernCase(t, "nttTailVec52", p,
					func(p []uint64) { nttTailVec52(p, w[:g], w52[:g], w[g:3*g], w52[g:3*g], q) },
					func(p []uint64) { modelNTTTail(p, w[:g], w52[:g], w[g:3*g], w52[g:3*g], q, mulLazy52Model) })
			}
			for _, in := range kernInputs(n, 2*q-1, q, rng) {
				p := in
				runKernCase(t, "inttHeadVec52", p,
					func(p []uint64) { inttHeadVec52(p, w[:n/2], w52[:n/2], w[n/2:3*n/4], w52[n/2:3*n/4], q) },
					func(p []uint64) {
						modelINTTHead(p, w[:n/2], w52[:n/2], w[n/2:3*n/4], w52[n/2:3*n/4], q, mulLazy52Model)
					})
				for _, tt := range []int{8, 16, 32} {
					g := n / (4 * tt)
					runKernCase(t, "inttPairVec52", p,
						func(p []uint64) { inttPairVec52(p, w[:2*g], w52[:2*g], w[2*g:3*g], w52[2*g:3*g], tt, q) },
						func(p []uint64) {
							modelINTTPair(p, w[:2*g], w52[:2*g], w[2*g:3*g], w52[2*g:3*g], tt, q, mulLazy52Model)
						})
				}
				ni52, wN52 := s.nInv52, s.psiInvRevN52
				runKernCase(t, "inttLastEvenVec52", p,
					func(p []uint64) {
						inttLastEvenVec52(p, w[2], w52[2], w[3], w52[3], s.nInv, ni52, s.psiInvRevN, wN52, q)
					},
					func(p []uint64) {
						modelINTTLastEven(p, w[2], w52[2], w[3], w52[3], s.nInv, ni52, s.psiInvRevN, wN52, q, mulLazy52Model)
					})
				runKernCase(t, "inttLastOddVec52", p,
					func(p []uint64) { inttLastOddVec52(p[:n/2], p[n/2:], s.nInv, ni52, s.psiInvRevN, wN52, q) },
					func(p []uint64) {
						modelINTTLastOdd(p[:n/2], p[n/2:], s.nInv, ni52, s.psiInvRevN, wN52, q, mulLazy52Model)
					})
			}
		}
	}
}

// TestGatherIdxVecMatchesScalar pins the VPGATHERDQ gather kernel against the
// trivial loop on permutations, repeated indices and constant indices.
func TestGatherIdxVecMatchesScalar(t *testing.T) {
	if !useNTTKern {
		t.Skip("vector NTT kernels unavailable on this CPU/build")
	}
	rng := rand.New(rand.NewSource(44))
	for _, n := range []int{4, 16, 64, 256} {
		src := make([]uint64, n)
		for i := range src {
			src[i] = rng.Uint64()
		}
		perm := rng.Perm(n)
		cases := [][]int32{make([]int32, n), make([]int32, n), make([]int32, n)}
		for i := 0; i < n; i++ {
			cases[0][i] = int32(perm[i])
			cases[1][i] = int32(rng.Intn(n))
			cases[2][i] = int32(n - 1)
		}
		for ci, idx := range cases {
			got := make([]uint64, n)
			gatherIdxVec(got, src, idx)
			for j := range got {
				if got[j] != src[idx[j]] {
					t.Fatalf("n=%d case=%d: gather differs at %d", n, ci, j)
				}
			}
		}
	}
}

// TestVecTransformsMatchScalarTransforms pins the full vector NTTLazy and
// INTTLazy drivers bit-identical to the scalar reference across even and odd
// log N, cache-block boundaries (n ≷ nttBlockWords), the IFMA tier boundary
// (50-bit primes just under 2^50) and the AVX2-only big-modulus path.
func TestVecTransformsMatchScalarTransforms(t *testing.T) {
	if !useNTTKern {
		t.Skip("vector NTT kernels unavailable on this CPU/build")
	}
	sizes := []int{16, 32, 64, 128, 256, 512, 1024, 4096, 8192, 16384}
	if testing.Short() {
		sizes = []int{16, 32, 256, 8192}
	}
	for _, n := range sizes {
		for _, bits := range []uint64{30, 45, 49, 50, 61} {
			s := kernTestRing(t, n, bits)
			rng := rand.New(rand.NewSource(int64(n)*64 + int64(bits)))
			for trial := 0; trial < 3; trial++ {
				a := make([]uint64, n)
				for i := range a {
					a[i] = rng.Uint64() % s.Q
				}
				vec := append([]uint64(nil), a...)
				ref := append([]uint64(nil), a...)
				s.nttLazyVec(vec)
				s.nttLazyScalar(ref)
				for i := range vec {
					if vec[i] != ref[i] {
						t.Fatalf("n=%d bits=%d ifma=%v: vector NTT differs from scalar at %d", n, bits, s.ifma, i)
					}
				}
				s.inttLazyVec(vec)
				s.inttLazyScalar(ref)
				for i := range vec {
					if vec[i] != ref[i] || vec[i] != a[i] {
						t.Fatalf("n=%d bits=%d ifma=%v: vector INTT differs at %d", n, bits, s.ifma, i)
					}
				}
			}
		}
	}
}
