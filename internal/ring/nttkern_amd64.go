//go:build amd64 && !purego

package ring

// AVX2 vector kernels for the lazy Harvey NTT/INTT butterflies
// (nttkern_amd64.s). The hot loops are 64-bit modular multiplies the gc
// compiler will not vectorize, so the amd64 build carries hand-written
// 256-bit kernels processing 4 coefficients per step. Each kernel replays
// the EXACT scalar dataflow — the same VPMULUDQ-composed 64×64 products,
// the same conditional subtractions, all arithmetic exact mod 2^64 — so
// outputs are bit-identical to the scalar reference in nttlazy.go
// (kernel-equivalence tests pin this on random and adversarial 4q−1
// inputs). Scalar fallbacks live in nttkern_generic.go; the drivers in
// nttlazy.go pick a path via useNTTKern.
//
// The vector MulModShoupLazy is the Shoup recipe on 4 lanes:
//
//	qHat = mulhi64(a, wShoup)   (4 VPMULUDQ + carry recombination)
//	r    = a·w − qHat·q  mod 2^64   (3 VPMULUDQ each for the two mullo64)
//
// ~10 VPMULUDQ per 4 lanes versus 3 scalar MULs per lane: the vector path
// wins ~3× on multiply throughput before counting the fused ladder.

func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// useNTTKern gates the vector butterfly kernels: AVX2 present (the 64-bit
// lane shuffles and VPMULUDQ forms need 256-bit integer ops) AND the OS
// saves/restores YMM state.
var useNTTKern = func() bool {
	_, _, c, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if lo, _ := xgetbv(); lo&0x6 != 0x6 { // XMM and YMM state enabled
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0 // AVX2
}()

// useNTTKernIFMA gates the 8-lane 52-bit madd tier: AVX512F + AVX512DQ +
// AVX512-IFMA present AND the OS saves/restores the full ZMM + opmask
// state. Subrings additionally require q < 2^50 (SubRing.ifma) so every
// lazy-domain value and base-2^52 Shoup quotient fits a madd operand.
var useNTTKernIFMA = func() bool {
	if !useNTTKern {
		return false
	}
	if lo, _ := xgetbv(); lo&0xE6 != 0xE6 { // XMM, YMM, opmask, ZMM state
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	const need = 1<<16 | 1<<17 | 1<<21 // AVX512F, AVX512DQ, AVX512IFMA
	return b&need == need
}()

// nttSingleVec runs one standalone CT stage over the half-arrays x0/x1
// (butterfly distance len(x0)) with a single broadcast twiddle:
// x0[j], x1[j] = u+v, u+2q−v with u = condSub(x0[j], 2q),
// v = MulModShoupLazy(x1[j], w, ws, q). len(x0) must be a multiple of 4.
// The vector NTT schedule uses it as the leading stage when log N is odd.
//
//alchemist:domain x0:[0,4q) x1:[0,4q) w:[0,q) ws:any q:modulus
//go:noescape
func nttSingleVec(x0, x1 []uint64, w, ws, q uint64)

// nttPairVec runs one fused CT stage pair over len(wA) consecutive groups:
// group g spans p[4·g·t : 4·(g+1)·t], stage twiddles wA[g] (distance 2t)
// then wB[2g], wB[2g+1] (distance t), exactly the fused radix-4 body of the
// scalar NTTLazy main loop. t must be a multiple of 4.
//
//alchemist:domain p:[0,4q) wA:[0,q) wAs:any wB:[0,q) wBs:any q:modulus
//go:noescape
func nttPairVec(p, wA, wAs, wB, wBs []uint64, t int, q uint64)

// nttTailVec runs the final fused CT stage pair (t = 1) over len(wA) groups
// of 4 consecutive coefficients, folding the full reduction to [0, q) into
// the last stage: the scalar NTTLazy epilogue, 4 lanes per group via
// in-register VPERMQ/VPBLENDD shuffles.
//
//alchemist:domain p:[0,4q) wA:[0,q) wAs:any wB:[0,q) wBs:any q:modulus
//go:noescape
func nttTailVec(p, wA, wAs, wB, wBs []uint64, q uint64)

// inttHeadVec runs the leading fused GS stage pair (t = 1) over len(wB)
// groups of 4 consecutive coefficients: stage twiddles wA[2g], wA[2g+1]
// (distance 1) then wB[g] (distance 2), the m = n iteration of the scalar
// INTTLazy main loop, 4 lanes per group via in-register shuffles.
//
//alchemist:domain p:[0,2q) wA:[0,q) wAs:any wB:[0,q) wBs:any q:modulus
//go:noescape
func inttHeadVec(p, wA, wAs, wB, wBs []uint64, q uint64)

// inttPairVec runs one fused GS stage pair over len(wB) consecutive groups:
// group g spans p[4·g·t : 4·(g+1)·t], stage twiddles wA[2g], wA[2g+1]
// (distance t) then wB[g] (distance 2t), the fused radix-4 body of the
// scalar INTTLazy main loop. t must be a multiple of 4.
//
//alchemist:domain p:[0,2q) wA:[0,q) wAs:any wB:[0,q) wBs:any q:modulus
//go:noescape
func inttPairVec(p, wA, wAs, wB, wBs []uint64, t int, q uint64)

// inttLastEvenVec fuses the unpaired m = 4 GS stage (twiddles wA0, wA1)
// with the final N^{-1}-scaled stage over the quarter-arrays of p, writing
// fully reduced [0, q) results: the even-log-N scalar INTTLazy epilogue.
// len(p)/4 must be a multiple of 4.
//
//alchemist:domain p:[0,2q) wA0:[0,q) wA0s:any wA1:[0,q) wA1s:any ni:[0,q) nis:any w:[0,q) ws:any q:modulus
//go:noescape
func inttLastEvenVec(p []uint64, wA0, wA0s, wA1, wA1s, ni, nis, w, ws, q uint64)

// inttLastOddVec runs the final N^{-1}-scaled GS stage over the half-arrays
// x0/x1, writing fully reduced [0, q) results: the odd-log-N scalar
// INTTLazy epilogue. len(x0) must be a multiple of 4.
//
//alchemist:domain x0:[0,2q) x1:[0,2q) ni:[0,q) nis:any w:[0,q) ws:any q:modulus
//go:noescape
func inttLastOddVec(x0, x1 []uint64, ni, nis, w, ws, q uint64)

// gatherIdxVec writes dst[j] = src[idx[j]] with VPGATHERDQ, 4 elements per
// step. len(dst) must be a multiple of 4 and every idx[j] in range for src.
// Used by the automorphism and fused-keyswitch gather paths.
//
//alchemist:domain dst:any src:any
//go:noescape
func gatherIdxVec(dst, src []uint64, idx []int32)

// The *52 kernels below are the AVX512-IFMA tier (nttkern52_amd64.s):
// 8 lanes per step, with the lazy Shoup product computed in base 2^52 via
// VPMADD52HUQ/VPMADD52LUQ from the psiRev52 tables. The base change means
// the quotient estimate can differ from the scalar base-2^64 one by 1, so
// an intermediate lazy value may differ from the scalar path by q while
// staying inside the same [0,4q)/[0,2q) domain bounds — the fully reduced
// NTTLazy/INTTLazy outputs are still bit-identical, which is what the
// equivalence tests pin. Callers require SubRing.ifma (q < 2^50).

// nttSingleVec52 is nttSingleVec on 8 lanes; len(x0) a multiple of 8.
//
//alchemist:domain x0:[0,4q) x1:[0,4q) w:[0,q) w52:any q:modulus
//go:noescape
func nttSingleVec52(x0, x1 []uint64, w, w52, q uint64)

// nttPairVec52 is nttPairVec on 8 lanes; t a multiple of 8.
//
//alchemist:domain p:[0,4q) wA:[0,q) wA52:any wB:[0,q) wB52:any q:modulus
//go:noescape
func nttPairVec52(p, wA, wA52, wB, wB52 []uint64, t int, q uint64)

// nttTailVec52 is nttTailVec processing two 4-coefficient groups per step;
// len(wA) must be even.
//
//alchemist:domain p:[0,4q) wA:[0,q) wA52:any wB:[0,q) wB52:any q:modulus
//go:noescape
func nttTailVec52(p, wA, wA52, wB, wB52 []uint64, q uint64)

// inttHeadVec52 is inttHeadVec processing two 4-coefficient groups per
// step; len(wB) must be even.
//
//alchemist:domain p:[0,2q) wA:[0,q) wA52:any wB:[0,q) wB52:any q:modulus
//go:noescape
func inttHeadVec52(p, wA, wA52, wB, wB52 []uint64, q uint64)

// inttPairVec52 is inttPairVec on 8 lanes; t a multiple of 8.
//
//alchemist:domain p:[0,2q) wA:[0,q) wA52:any wB:[0,q) wB52:any q:modulus
//go:noescape
func inttPairVec52(p, wA, wA52, wB, wB52 []uint64, t int, q uint64)

// inttLastEvenVec52 is inttLastEvenVec on 8 lanes; len(p)/4 a multiple
// of 8.
//
//alchemist:domain p:[0,2q) wA0:[0,q) wA052:any wA1:[0,q) wA152:any ni:[0,q) ni52:any w:[0,q) w52:any q:modulus
//go:noescape
func inttLastEvenVec52(p []uint64, wA0, wA052, wA1, wA152, ni, ni52, w, w52, q uint64)

// inttLastOddVec52 is inttLastOddVec on 8 lanes; len(x0) a multiple of 8.
//
//alchemist:domain x0:[0,2q) x1:[0,2q) ni:[0,q) ni52:any w:[0,q) w52:any q:modulus
//go:noescape
func inttLastOddVec52(x0, x1 []uint64, ni, ni52, w, w52, q uint64)

// shoupMulVec52 writes dst[k] = src[k]·w mod q fully reduced, 8 lanes per
// step via the base-2^52 lazy product plus one conditional subtraction. The
// eager result is the unique residue, so it is bit-identical to the scalar
// MulModShoup path for any quotient tier. len(dst) must be a multiple of 8
// and q < 2^51 (so the lazy product's [0, 2q) range fits base 2^52).
// Used by the vectorized basis-conversion step 1 (decompose.go).
//
//alchemist:domain src:[0,q) w:[0,q) w52:any q:modulus
//go:noescape
func shoupMulVec52(dst, src []uint64, w, w52, q uint64)

// convAcc52 accumulates the basis-conversion step 2 partial sums for one
// target channel: for each coefficient k it computes
//
//	lo[k] = Σ_i lo52(y[i·stride+k] · hc[i]),  hi[k] = Σ_i hi52(…)
//
// over the channel-major tile y (len(hc) source channels, VPMADD52 pairs,
// 8 coefficients per step). The caller reconstructs the exact 128-bit sum
// hi·2^52 + lo and Barrett-folds it, so the folded residue is bit-identical
// to the scalar lazy accumulation. Bounds: all operands < 2^52 and
// len(hc) < 2^12 keep both lanewise sums below 2^64. len(lo) = len(hi) must
// be a multiple of 8.
//
//alchemist:domain y:any hc:any lo:any hi:any
//go:noescape
func convAcc52(y, hc, lo, hi []uint64, stride int)

// rescaleVec52 runs the rescale / ModDown channel step on 8 lanes:
//
//	dst[k] = condSub(lazyMul52(src[k] + q − condSub(last[k], q), inv), q)
//
// The leading conditional subtraction folds the cross-channel residue into
// [0, q) (a no-op when last[k] is already canonical, so both the q_l ≤ q_i
// and q_l ≤ 2q_i scalar cases map onto this one kernel bit-identically),
// the biased difference sits in (0, 2q) ⊂ [0, 2^52), and the trailing
// conditional subtraction makes the result the unique residue — identical
// to the scalar condSubMask(MulModShoupLazy(...)) composition regardless of
// the base-2^52 quotient tier. Requires q < 2^51 and len(dst) a multiple
// of 8.
//
//alchemist:domain dst:[0,q) src:[0,q) last:[0,2q) inv:[0,q) inv52:any q:modulus
//go:noescape
func rescaleVec52(dst, src, last []uint64, inv, inv52, q uint64)
