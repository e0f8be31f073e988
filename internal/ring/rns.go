package ring

import (
	"math/big"
	"math/bits"

	"alchemist/internal/modmath"
)

// BasisConverter implements the RNS basis conversion of eq. (1) in the paper
// (the HPS "fast basis conversion"):
//
//	Bconv([x]_Q, p_j) = ( Σ_{i=0}^{L-1} [[x]_{q_i} · q̂_i^{-1}]_{q_i} · q̂_i ) mod p_j
//
// where q̂_i = Q/q_i. The result equals x + u·Q for a small overshoot
// 0 ≤ u < L; the FHE schemes absorb this (ModUp noise, ModDown division).
// A converter is built once for a (source, target) moduli pair and supports
// any source level (prefix of the source basis).
type BasisConverter struct {
	Src, Dst []uint64
	// qiHatInv[l][i] = (Q_l/q_i)^{-1} mod q_i where Q_l = q_0…q_l.
	qiHatInv      [][]uint64
	qiHatInvShoup [][]uint64
	// qiHatInv52[l][i] is the base-2^52 Shoup precomputation of qiHatInv,
	// populated only when conv52 is set (the AVX512-IFMA conversion tier).
	qiHatInv52 [][]uint64
	// qiHat[l][i][j] = (Q_l/q_i) mod p_j.
	qiHat      [][][]uint64
	qiHatShoup [][][]uint64
	// qModP[l][j] = Q_l mod p_j, lazily built for ConvertExact.
	qModP [][]uint64
	// dstRed[j] is the Barrett state for p_j, used to fold source-channel
	// residues into the target channel without a raw %.
	dstRed []modmath.Barrett
	// scratch recycles the per-block y_i buffers of ConvertN/ConvertExact.
	scratch BufPool
	// lazyCap bounds the unreduced term count of the lazy step-2 accumulation
	// (decompose.go): the largest m with m·q_src ≤ 2^64 over all source
	// moduli, so a capacity-bounded sum stays inside Barrett.Reduce's
	// x < p_j·2^64 domain.
	lazyCap int
	// conv52 selects the AVX512-IFMA conversion kernels (decompose.go):
	// requires the IFMA tier plus every source AND target modulus below
	// 2^51, so step 1's lazy Shoup range [0, 2q) and every step-2 madd
	// operand fit base 2^52.
	conv52 bool
	// host, when set via BindScheduler, is the ring whose limb/block
	// scheduler fans the lazy conversion's coefficient tiles out across
	// workers. Nil (the default) keeps every conversion serial regardless
	// of any ring's worker setting.
	host *Ring
}

// convBlock is the coefficient tile width of the basis conversions: the
// per-source-channel y_i values for one tile (L channels × convBlock words)
// stay L1-resident across the whole target-channel accumulation, instead of
// streaming L full-degree buffers through the cache per target channel —
// the software counterpart of the accelerator's scratchpad-blocked Bconv.
const convBlock = 64

// NewBasisConverter precomputes conversion tables from basis src to basis dst.
func NewBasisConverter(src, dst []uint64) *BasisConverter {
	L := len(src)
	bc := &BasisConverter{
		Src:           append([]uint64(nil), src...),
		Dst:           append([]uint64(nil), dst...),
		qiHatInv:      make([][]uint64, L),
		qiHatInvShoup: make([][]uint64, L),
		qiHat:         make([][][]uint64, L),
		qiHatShoup:    make([][][]uint64, L),
		dstRed:        make([]modmath.Barrett, len(dst)),
	}
	for j, pj := range dst {
		bc.dstRed[j] = modmath.NewBarrett(pj)
	}
	maxSrc := uint64(0)
	for _, q := range src {
		if q > maxSrc {
			maxSrc = q
		}
	}
	bc.lazyCap = 1 << (64 - bits.Len64(maxSrc))
	bc.conv52 = useNTTKernIFMA && maxSrc < 1<<51
	for _, pj := range dst {
		if pj >= 1<<51 {
			bc.conv52 = false
		}
	}
	if bc.conv52 {
		bc.qiHatInv52 = make([][]uint64, L)
	}
	for l := 0; l < L; l++ {
		Ql := big.NewInt(1)
		for i := 0; i <= l; i++ {
			Ql.Mul(Ql, new(big.Int).SetUint64(src[i]))
		}
		bc.qiHatInv[l] = make([]uint64, l+1)
		bc.qiHatInvShoup[l] = make([]uint64, l+1)
		if bc.conv52 {
			bc.qiHatInv52[l] = make([]uint64, l+1)
		}
		bc.qiHat[l] = make([][]uint64, l+1)
		bc.qiHatShoup[l] = make([][]uint64, l+1)
		tmp := new(big.Int)
		for i := 0; i <= l; i++ {
			qi := new(big.Int).SetUint64(src[i])
			hat := new(big.Int).Div(Ql, qi)
			inv := tmp.Mod(hat, qi)
			invU := modmath.InvMod(inv.Uint64(), src[i])
			bc.qiHatInv[l][i] = invU
			bc.qiHatInvShoup[l][i] = modmath.ShoupPrecomp(invU, src[i])
			if bc.conv52 {
				bc.qiHatInv52[l][i] = shoup52(invU, src[i])
			}
			bc.qiHat[l][i] = make([]uint64, len(dst))
			bc.qiHatShoup[l][i] = make([]uint64, len(dst))
			for j, pj := range dst {
				pjb := new(big.Int).SetUint64(pj)
				h := new(big.Int).Mod(hat, pjb).Uint64()
				bc.qiHat[l][i][j] = h
				bc.qiHatShoup[l][i][j] = modmath.ShoupPrecomp(h, pj)
			}
		}
	}
	return bc
}

// BindScheduler attaches the converter to r's limb/block scheduler so the
// lazy conversions (ConvertLazyN, ConvertBoth) run tile-parallel under r's
// worker setting. The ring only supplies scheduling — any ring of the same
// degree works — so the evaluator contexts bind their main ring. Not safe to
// call concurrently with running conversions.
func (bc *BasisConverter) BindScheduler(r *Ring) { bc.host = r }

// Convert performs the basis conversion for every coefficient. in holds
// srcLevel+1 channels over the source moduli (coefficient domain); out must
// hold len(Dst) channels. Channels are independent slices of equal length.
func (bc *BasisConverter) Convert(srcLevel int, in, out [][]uint64) {
	bc.ConvertN(srcLevel, in, out, len(bc.Dst))
}

// ConvertN is Convert restricted to the first nDst target channels; the
// hybrid key switch uses it to skip target moduli above the working level.
// The conversion is tiled over convBlock coefficients (scratch from the
// converter's arena, no per-call allocation) and produces coefficients
// byte-identical to the untiled reference formula.
//
//alchemist:hot
func (bc *BasisConverter) ConvertN(srcLevel int, in, out [][]uint64, nDst int) {
	n := len(in[0])
	L := srcLevel + 1
	y := bc.scratch.Get(L * convBlock)
	hatRow, hatSRow := bc.qiHat[srcLevel], bc.qiHatShoup[srcLevel]
	for k0 := 0; k0 < n; k0 += convBlock {
		kn := n - k0
		if kn > convBlock {
			kn = convBlock
		}
		// Step 1 of Fig. 4(b): y_i = [x_i · q̂_i^{-1}]_{q_i}, per source
		// channel, for this tile (shared with the lazy variant).
		bc.convStep1(srcLevel, k0, kn, in, y)
		// Step 2: for each target channel, accumulate y_i · q̂_i mod p_j.
		// (On the accelerator this is a Meta-OP (M8A8)_L R8 per 8 outputs.)
		for j := 0; j < nDst; j++ {
			pj := bc.Dst[j]
			red := bc.dstRed[j]
			dst := out[j][k0 : k0+kn]
			for k := range dst {
				dst[k] = 0
			}
			for i := 0; i < L; i++ {
				h, hs := hatRow[i][j], hatSRow[i][j]
				yb := y[i*convBlock : i*convBlock+kn]
				qi := bc.Src[i]
				switch {
				case qi <= pj:
					// y_i < q_i ≤ p_j: already a residue of p_j.
					for k := range yb {
						dst[k] = modmath.AddMod(dst[k], modmath.MulModShoup(yb[k], h, hs, pj), pj)
					}
				case qi <= 2*pj:
					// One conditional subtraction replaces the Barrett fold.
					for k := range yb {
						dst[k] = modmath.AddMod(dst[k], modmath.MulModShoup(condSubMask(yb[k], pj), h, hs, pj), pj)
					}
				default:
					for k := range yb {
						dst[k] = modmath.AddMod(dst[k], modmath.MulModShoup(red.ReduceWord(yb[k]), h, hs, pj), pj)
					}
				}
			}
		}
	}
	bc.scratch.Put(y)
}

// Extender bundles the conversions needed by hybrid key switching between
// basis Q = {q_0..q_L} and the special basis P = {p_0..p_K-1}: ModUp
// (eq. 2), ModDown (eq. 3) and CKKS rescaling.
type Extender struct {
	RQ, RP *Ring // rings over Q and P (same degree)

	qToP *BasisConverter
	pToQ *BasisConverter

	// pInv[i] = P^{-1} mod q_i, for ModDown.
	pInv      []uint64
	pInvShoup []uint64

	// qlInv[l][i] = q_l^{-1} mod q_i (i < l), for rescaling by the last modulus.
	qlInv      [][]uint64
	qlInvShoup [][]uint64

	// pInv52 / qlInv52 are the base-2^52 Shoup precomputations of the two
	// inverse tables, populated only on the AVX512-IFMA tier: the rescale and
	// ModDown channel steps share one fused subtract-scale-reduce kernel
	// (rescaleVec52) whenever the channel modulus fits its q < 2^51 bound.
	pInv52  []uint64
	qlInv52 [][]uint64
}

// NewExtender builds an Extender for rings rQ (main basis) and rP (special
// basis). Both must share the polynomial degree.
func NewExtender(rQ, rP *Ring) *Extender {
	e := &Extender{
		RQ:   rQ,
		RP:   rP,
		qToP: NewBasisConverter(rQ.Moduli, rP.Moduli),
		pToQ: NewBasisConverter(rP.Moduli, rQ.Moduli),
	}
	// Both conversions ride the main ring's scheduler: ModUp/ModDown tiles
	// split across its workers alongside the limb-parallel channel steps.
	e.qToP.BindScheduler(rQ)
	e.pToQ.BindScheduler(rQ)
	P := big.NewInt(1)
	for _, p := range rP.Moduli {
		P.Mul(P, new(big.Int).SetUint64(p))
	}
	e.pInv = make([]uint64, len(rQ.Moduli))
	e.pInvShoup = make([]uint64, len(rQ.Moduli))
	tmp := new(big.Int)
	for i, qi := range rQ.Moduli {
		pModQi := tmp.Mod(P, new(big.Int).SetUint64(qi)).Uint64()
		e.pInv[i] = modmath.InvMod(pModQi, qi)
		e.pInvShoup[i] = modmath.ShoupPrecomp(e.pInv[i], qi)
	}
	L := len(rQ.Moduli)
	e.qlInv = make([][]uint64, L)
	e.qlInvShoup = make([][]uint64, L)
	for l := 1; l < L; l++ {
		e.qlInv[l] = make([]uint64, l)
		e.qlInvShoup[l] = make([]uint64, l)
		for i := 0; i < l; i++ {
			inv := modmath.InvMod(rQ.SubRings[i].ReduceWord(rQ.Moduli[l]), rQ.Moduli[i])
			e.qlInv[l][i] = inv
			e.qlInvShoup[l][i] = modmath.ShoupPrecomp(inv, rQ.Moduli[i])
		}
	}
	if useNTTKernIFMA {
		e.pInv52 = make([]uint64, len(rQ.Moduli))
		for i, qi := range rQ.Moduli {
			e.pInv52[i] = shoup52(e.pInv[i], qi)
		}
		e.qlInv52 = make([][]uint64, L)
		for l := 1; l < L; l++ {
			e.qlInv52[l] = make([]uint64, l)
			for i := 0; i < l; i++ {
				e.qlInv52[l][i] = shoup52(e.qlInv[l][i], rQ.Moduli[i])
			}
		}
	}
	return e
}

// ModUp implements eq. (2): extends a (levels 0..level over Q, coefficient
// domain) with K channels over P, writing them into outP (a P-basis poly).
// It runs on the lazy conversion kernel (byte-identical to the eager
// reference Convert, which tests cross-check it against).
func (e *Extender) ModUp(level int, a *Poly, outP *Poly) {
	e.qToP.ConvertLazyN(level, a.Coeffs[:level+1], outP.Coeffs, len(e.qToP.Dst))
}

// ModDown implements eq. (3): given aQ over Q (levels 0..level) and aP over
// the full special basis P, computes [ (a - Bconv(aP)) · P^{-1} ]_{q_i} into
// out. All polynomials are in the coefficient domain. The conversion target
// is borrowed from the ring arena, so the steady state is allocation-free.
//
//alchemist:hot
func (e *Extender) ModDown(level int, aQ, aP, out *Poly) {
	conv := e.RQ.Borrow(level)
	e.pToQ.ConvertLazyN(len(e.RP.Moduli)-1, aP.Coeffs, conv.Coeffs, level+1)
	e.modDownLimbs(level, aQ, conv, out)
	e.RQ.Release(conv)
}

// modDownLimbs runs the subtract-and-scale step over all channels, limb-
// parallel via the op-coded scheduler when workers are configured. conv is
// owned by the caller for the whole call (the scheduler's barrier returns
// before ModDown releases it), so the job only ever sees live scratch.
func (e *Extender) modDownLimbs(level int, aQ, conv, out *Poly) {
	if parts := e.RQ.parWidth(level + 1); parts > 1 {
		j := e.RQ.getJob()
		j.op, j.ext, j.a, j.b, j.out, j.tasks = opModDown, e, aQ, conv, out, level+1
		e.RQ.runParallel(j, parts)
		return
	}
	for i := 0; i <= level; i++ {
		e.modDownChannel(i, aQ, conv, out)
	}
}

// modDownChannel applies the subtract-and-scale step of ModDown in channel i.
//
//alchemist:hot
func (e *Extender) modDownChannel(i int, aQ, conv, out *Poly) {
	n := e.RQ.N
	qi := e.RQ.Moduli[i]
	inv, invS := e.pInv[i], e.pInvShoup[i]
	src, c, dst := aQ.Coeffs[i][:n:n], conv.Coeffs[i][:n:n], out.Coeffs[i][:n:n]
	if useNTTKernIFMA && qi < 1<<51 && n&7 == 0 {
		// c is fully reduced, so the kernel's leading condSub is a no-op and
		// the composition matches this loop bit for bit.
		rescaleVec52(dst, src, c, inv, e.pInv52[i], qi)
		return
	}
	for k := 0; k < n; k++ {
		d := src[k] + qi - c[k] // src, c < q_i, so d < 2q_i
		dst[k] = condSubMask(modmath.MulModShoupLazy(d, inv, invS, qi), qi)
	}
}

// RescaleByLastModulus divides a (levels 0..level, coefficient domain) by
// q_level with rounding, producing a poly at level-1:
// out_i = (a_i - a_level) · q_level^{-1} mod q_i. This is the CKKS rescale.
// Panics if level == 0 (there is no modulus left to drop).
//
// The cross-channel reduction of a_level into q_i is specialized on the
// modulus relation: when q_level ≤ q_i the residue is already valid, when
// q_level ≤ 2q_i one conditional subtraction suffices, and only otherwise
// does the Barrett fold run. With the repository's parameter shapes (one
// wide q_0, narrow scale primes) every channel takes one of the two cheap
// cases. Outputs are byte-identical to the reference formula.
//
//alchemist:hot
func (e *Extender) RescaleByLastModulus(level int, a, out *Poly) {
	if level == 0 {
		panic("ring: cannot rescale below level 0")
	}
	if parts := e.RQ.parWidth(level); parts > 1 {
		j := e.RQ.getJob()
		j.op, j.ext, j.level, j.a, j.out, j.tasks = opRescale, e, level, a, out, level
		e.RQ.runParallel(j, parts)
		return
	}
	for i := 0; i < level; i++ {
		e.rescaleChannel(level, i, a, out)
	}
}

// rescaleChannel applies the rescale step out_i = (a_i - a_level)·q_level^{-1}
// in channel i, with the a_level→q_i reduction specialized per the doc above.
//
//alchemist:hot
func (e *Extender) rescaleChannel(level, i int, a, out *Poly) {
	n := e.RQ.N
	ql := e.RQ.Moduli[level]
	last := a.Coeffs[level][:n:n]
	qi := e.RQ.Moduli[i]
	inv, invS := e.qlInv[level][i], e.qlInvShoup[level][i]
	src, dst := a.Coeffs[i][:n:n], out.Coeffs[i][:n:n]
	if useNTTKernIFMA && qi < 1<<51 && ql <= 2*qi && n&7 == 0 {
		// One kernel covers both cheap reduction cases: its leading condSub
		// of last is the identity when q_l ≤ q_i and exactly the scalar
		// condSubMask when q_l ≤ 2q_i, so either way the composition is
		// bit-identical to the matching scalar loop below.
		rescaleVec52(dst, src, last, inv, e.qlInv52[level][i], qi)
		return
	}
	switch {
	case ql <= qi:
		for k := 0; k < n; k++ {
			d := src[k] + qi - last[k] // last < q_l ≤ q_i, so d < 2q_i
			dst[k] = condSubMask(modmath.MulModShoupLazy(d, inv, invS, qi), qi)
		}
	case ql <= 2*qi:
		for k := 0; k < n; k++ {
			d := src[k] + qi - condSubMask(last[k], qi) // < 2q_i
			dst[k] = condSubMask(modmath.MulModShoupLazy(d, inv, invS, qi), qi)
		}
	default:
		sub := e.RQ.SubRings[i]
		for k := 0; k < n; k++ {
			d := src[k] + qi - sub.ReduceWord(last[k])
			dst[k] = condSubMask(modmath.MulModShoupLazy(d, inv, invS, qi), qi)
		}
	}
}
