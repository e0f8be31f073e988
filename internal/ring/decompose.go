package ring

import (
	"fmt"
	"math/bits"

	"alchemist/internal/modmath"
)

// Digit-batched basis conversion: the Bconv half of the fused keyswitch.
//
// The eager ConvertN reduces every accumulated term (AddMod + a three-way
// case split on the source/target modulus relation). The lazy variant below
// accumulates Σ y_i·(q̂_i mod p_j) per coefficient as an unreduced 128-bit
// pair in a stack tile and folds ONCE per target channel — a uniform,
// branch-free inner loop whose output is byte-identical (both compute the
// same fully reduced sum mod p_j). On top of it, DualConverter converts one
// digit group to BOTH keyswitch targets (Q and P) sharing the step-1 digit
// scaling y_i = [x_i·q̂_i^{-1}]_{q_i} between them — the eager path computes
// those y twice — and copies the group's own Q channels verbatim (the
// conversion is the identity there: q̂_i ≡ 0 mod q_j for i ≠ j inside the
// group, and y_j·q̂_j ≡ x_j). Decomposer batches the dual conversion over
// every digit group, so a whole ModUp runs in one pass over the converter's
// scratch arena instead of two passes per digit.

// ConvertLazyN is ConvertN with lazy 128-bit accumulation in step 2:
// byte-identical output, one Barrett fold per target coefficient instead of a
// reduction per term. The tile accumulators flush at the capacity bound
// m·q_src ≤ 2^64 (see lazyCap), so any source width up to the 2^62 modulus
// bound is safe.
//
//alchemist:hot
func (bc *BasisConverter) ConvertLazyN(srcLevel int, in, out [][]uint64, nDst int) {
	n := len(in[0])
	tiles := (n + convBlock - 1) / convBlock
	if r := bc.host; r != nil {
		// Column-parallel dispatch: tiles are disjoint coefficient ranges, so
		// partitions write disjoint slices of every target channel and the
		// per-tile arithmetic — and therefore the output — is byte-identical
		// to the serial tile loop.
		if parts := r.parWidth(tiles); parts > 1 {
			j := r.getJob()
			j.op, j.bc, j.srcLevel, j.in, j.o1, j.nDst, j.tasks = opConvert, bc, srcLevel, in, out, nDst, tiles
			r.runParallel(j, parts)
			return
		}
	}
	bc.convertLazyRange(srcLevel, in, out, nDst, 0, tiles, 0)
}

// convertLazyRange is the tile-range body of ConvertLazyN: it processes
// tiles [t0, t1) (tile t covers coefficients [t·convBlock, (t+1)·convBlock)
// clamped to n), drawing scratch from the given arena shard so concurrent
// partitions never contend on one resident stack.
//
//alchemist:hot
func (bc *BasisConverter) convertLazyRange(srcLevel int, in, out [][]uint64, nDst, t0, t1, shard int) {
	n := len(in[0])
	L := srcLevel + 1
	if bc.conv52 && L <= convBlock && L <= bc.lazyCap && n&7 == 0 {
		bc.convertLazy52Range(srcLevel, in, out, nDst, t0, t1, shard)
		return
	}
	y := bc.scratch.GetShard(shard, L*convBlock)
	hatRow := bc.qiHat[srcLevel]
	for k0 := t0 * convBlock; k0 < t1*convBlock && k0 < n; k0 += convBlock {
		kn := n - k0
		if kn > convBlock {
			kn = convBlock
		}
		bc.convStep1T(srcLevel, k0, kn, in, y)
		for j := 0; j < nDst; j++ {
			lazyConvTile(hatRow, L, j, kn, bc.lazyCap, y, bc.dstRed[j], out[j][k0:k0+kn])
		}
	}
	bc.scratch.PutShard(shard, y)
}

// convertLazy52Range is the tile-range body of ConvertLazyN on the
// AVX512-IFMA kernels: step 1 runs shoupMulVec52 per source channel into the
// channel-major tile, step 2 runs convAcc52 per target channel, accumulating
// exact base-2^52 partial sums that are reconstructed into the same 128-bit
// integer the scalar path folds (hi·2^52 + lo, carry-exact), so the Barrett
// residue — and therefore the output — is byte-identical to lazyConvTile.
// The gates (conv52, L ≤ convBlock, L ≤ lazyCap, 8 | n) guarantee, in order:
// every madd operand below 2^52, the stack column stash fits, the
// reconstructed sum inside Barrett's x < p_j·2^64 domain, and whole 8-lane
// tiles. No flush path is needed: L ≤ convBlock = 64 keeps both lane sums
// far below the 2^64 accumulator bound (overflow would need L ≥ 2^12). The
// per-call stack tiles make the range form trivially partition-safe.
//
//alchemist:hot
func (bc *BasisConverter) convertLazy52Range(srcLevel int, in, out [][]uint64, nDst, t0, t1, shard int) {
	n := len(in[0])
	L := srcLevel + 1
	y := bc.scratch.GetShard(shard, L*convBlock)
	invRow, inv52Row := bc.qiHatInv[srcLevel], bc.qiHatInv52[srcLevel]
	hatRow := bc.qiHat[srcLevel]
	var hc, lo, hi [convBlock]uint64
	for k0 := t0 * convBlock; k0 < t1*convBlock && k0 < n; k0 += convBlock {
		kn := n - k0
		if kn > convBlock {
			kn = convBlock
		}
		for i := 0; i < L; i++ {
			shoupMulVec52(y[i*convBlock:i*convBlock+kn], in[i][k0:k0+kn], invRow[i], inv52Row[i], bc.Src[i])
		}
		for j := 0; j < nDst; j++ {
			for i := 0; i < L; i++ {
				hc[i] = hatRow[i][j]
			}
			convAcc52(y, hc[:L], lo[:kn], hi[:kn], convBlock)
			convFold52(bc.dstRed[j], lo[:kn], hi[:kn], out[j][k0:k0+kn])
		}
	}
	bc.scratch.PutShard(shard, y)
}

// convFold52 reconstructs each coefficient's exact 128-bit sum from the
// base-2^52 partial-sum pair and Barrett-folds it:
// value = hi·2^52 + lo = (hi>>12)·2^64 + (hi<<52 + lo), with the add's carry
// promoted into the high word.
//
//alchemist:hot
func convFold52(red modmath.Barrett, lo, hi, dst []uint64) {
	for k := range dst {
		h, l := hi[k]>>12, hi[k]<<52
		var c uint64
		l, c = bits.Add64(l, lo[k], 0)
		dst[k] = red.Reduce(h+c, l)
	}
}

// convStep1T is convStep1 with the scratch tile transposed to
// coefficient-major order (y[k*L+i]): the lazy step-2 kernel walks one
// coefficient's terms contiguously instead of striding convBlock words per
// term, which keeps its inner loop in a single cache line and lets the
// compiler drop the index arithmetic and bounds checks. The eager ConvertN
// keeps the channel-major convStep1 — its step 2 walks channel-major.
//
//alchemist:hot
func (bc *BasisConverter) convStep1T(srcLevel, k0, kn int, in [][]uint64, y []uint64) {
	invRow, invSRow := bc.qiHatInv[srcLevel], bc.qiHatInvShoup[srcLevel]
	L := srcLevel + 1
	for i := 0; i <= srcLevel; i++ {
		qi := bc.Src[i]
		inv, invS := invRow[i], invSRow[i]
		src := in[i][k0 : k0+kn]
		for k, v := range src {
			y[k*L+i] = modmath.MulModShoup(v, inv, invS, qi)
		}
	}
}

// convStep1 computes the shared first step of the HPS conversion for one
// coefficient tile: y_i = [x_i · q̂_i^{-1}]_{q_i} per source channel.
//
//alchemist:hot
func (bc *BasisConverter) convStep1(srcLevel, k0, kn int, in [][]uint64, y []uint64) {
	invRow, invSRow := bc.qiHatInv[srcLevel], bc.qiHatInvShoup[srcLevel]
	for i := 0; i <= srcLevel; i++ {
		qi := bc.Src[i]
		inv, invS := invRow[i], invSRow[i]
		src := in[i][k0 : k0+kn]
		yb := y[i*convBlock : i*convBlock+kn]
		for k := range src {
			yb[k] = modmath.MulModShoup(src[k], inv, invS, qi)
		}
	}
}

// lazyConvTile accumulates step 2 for one target channel over one tile:
// dst[k] = (Σ_i y[k*L+i] · hatRow[i][j]) mod p_j, each coefficient's sum
// kept as an unreduced hi:lo register pair with a single deferred Barrett
// fold. y is the coefficient-major tile from convStep1T, so one
// coefficient's terms are contiguous; the q̂ column for the target channel
// is gathered once into a stack array, and the inner loop runs
// load → widening-multiply → carry-chain with no tile-sized
// read-modify-write traffic, writing dst exactly once. The kernel allocates
// nothing.
func lazyConvTile(hatRow [][]uint64, L, j, kn, lazyCap int, y []uint64, red modmath.Barrett, dst []uint64) {
	if L <= lazyCap && L <= convBlock {
		var h [convBlock]uint64
		for i := 0; i < L; i++ {
			h[i] = hatRow[i][j]
		}
		hc := h[:L]
		// Two independent accumulator pairs so consecutive terms do not
		// serialize on one add-with-carry chain; the exact 128-bit merge
		// keeps the integer total — and therefore the folded residue —
		// bit-identical (addition order cannot change it, and the capacity
		// bound covers the recombined whole).
		for k := 0; k < kn; k++ {
			yk := y[k*L : k*L+L]
			var a0h, a0l, a1h, a1l uint64
			i := 0
			for ; i+2 <= len(yk); i += 2 {
				var c uint64
				ph, pl := bits.Mul64(yk[i], hc[i])
				a0l, c = bits.Add64(a0l, pl, 0)
				a0h += ph + c
				ph, pl = bits.Mul64(yk[i+1], hc[i+1])
				a1l, c = bits.Add64(a1l, pl, 0)
				a1h += ph + c
			}
			if i < len(yk) {
				var c uint64
				ph, pl := bits.Mul64(yk[i], hc[i])
				a0l, c = bits.Add64(a0l, pl, 0)
				a0h += ph + c
			}
			var c uint64
			a0l, c = bits.Add64(a0l, a1l, 0)
			a0h += a1h + c
			dst[k] = red.Reduce(a0h, a0l)
		}
		return
	}
	// Wide sources (more terms than the capacity bound or the column stash):
	// same register accumulation with periodic in-register flushes. The flush
	// point cannot change the result — Reduce is exact, so the refolded
	// residue re-enters the sum unchanged mod p_j.
	for k := 0; k < kn; k++ {
		var hi, lo uint64
		terms := 0
		for i := 0; i < L; i++ {
			if terms >= lazyCap {
				lo = red.Reduce(hi, lo)
				hi = 0
				terms = 1 // the flushed residue
			}
			terms++
			phi, plo := bits.Mul64(y[k*L+i], hatRow[i][j])
			var c uint64
			lo, c = bits.Add64(lo, plo, 0)
			hi += phi + c
		}
		dst[k] = red.Reduce(hi, lo)
	}
}

// DualConverter converts one digit group to both keyswitch target bases in a
// single pass, sharing the step-1 scaling and short-circuiting the group's
// own Q channels to verbatim copies. Built from the same per-group converters
// the eager reference path uses, so the tables are not duplicated.
type DualConverter struct {
	ToQ, ToP *BasisConverter
	// qOff is the index of the group's first modulus inside the Q target
	// basis (the identity channels are [qOff, qOff+L)), or -1 when the
	// source is not a contiguous slice of the target.
	qOff int
}

// NewDualConverter pairs the two per-group converters. qOff marks where the
// group's moduli sit inside toQ.Dst (pass -1 to disable the identity-copy
// fast path); it is validated against the actual moduli.
func NewDualConverter(toQ, toP *BasisConverter, qOff int) (*DualConverter, error) {
	if len(toQ.Src) != len(toP.Src) {
		return nil, fmt.Errorf("ring: dual converter source mismatch: %d vs %d moduli", len(toQ.Src), len(toP.Src))
	}
	for i := range toQ.Src {
		if toQ.Src[i] != toP.Src[i] {
			return nil, fmt.Errorf("ring: dual converter source mismatch at channel %d", i)
		}
	}
	if qOff >= 0 {
		if qOff+len(toQ.Src) > len(toQ.Dst) {
			return nil, fmt.Errorf("ring: identity offset %d out of range", qOff)
		}
		for i, q := range toQ.Src {
			if toQ.Dst[qOff+i] != q {
				return nil, fmt.Errorf("ring: source modulus %d is not target channel %d", q, qOff+i)
			}
		}
	}
	return &DualConverter{ToQ: toQ, ToP: toP, qOff: qOff}, nil
}

// ConvertBoth converts the group digits (srcLevel+1 channels, coefficient
// domain) into the first nQ channels of outQ and all channels of outP,
// byte-identical to running the two eager conversions separately.
//
//alchemist:hot
func (dc *DualConverter) ConvertBoth(srcLevel int, in, outQ, outP [][]uint64, nQ int) {
	n := len(in[0])
	tiles := (n + convBlock - 1) / convBlock
	if r := dc.ToQ.host; r != nil {
		if parts := r.parWidth(tiles); parts > 1 {
			j := r.getJob()
			j.op, j.dc, j.srcLevel, j.in, j.o1, j.o2, j.nQ, j.tasks = opConvertBoth, dc, srcLevel, in, outQ, outP, nQ, tiles
			r.runParallel(j, parts)
			return
		}
	}
	dc.convertBothRange(srcLevel, in, outQ, outP, nQ, 0, tiles, 0)
}

// convertBothRange is the tile-range body of ConvertBoth (tiles [t0, t1),
// scratch from the given arena shard). The identity-copy fast path and the
// per-tile fold order are unchanged, so the range decomposition is
// byte-identical to the full sweep.
//
//alchemist:hot
func (dc *DualConverter) convertBothRange(srcLevel int, in, outQ, outP [][]uint64, nQ, t0, t1, shard int) {
	n := len(in[0])
	L := srcLevel + 1
	toQ, toP := dc.ToQ, dc.ToP
	if toQ.conv52 && toP.conv52 && L <= convBlock && L <= toQ.lazyCap && L <= toP.lazyCap && n&7 == 0 {
		dc.convertBoth52Range(srcLevel, in, outQ, outP, nQ, t0, t1, shard)
		return
	}
	y := toQ.scratch.GetShard(shard, L*convBlock)
	hatQ := toQ.qiHat[srcLevel]
	hatP := toP.qiHat[srcLevel]
	for k0 := t0 * convBlock; k0 < t1*convBlock && k0 < n; k0 += convBlock {
		kn := n - k0
		if kn > convBlock {
			kn = convBlock
		}
		toQ.convStep1T(srcLevel, k0, kn, in, y)
		for j := 0; j < nQ; j++ {
			if dc.qOff >= 0 && j >= dc.qOff && j < dc.qOff+L {
				copy(outQ[j][k0:k0+kn], in[j-dc.qOff][k0:k0+kn])
				continue
			}
			lazyConvTile(hatQ, L, j, kn, toQ.lazyCap, y, toQ.dstRed[j], outQ[j][k0:k0+kn])
		}
		for j := range toP.Dst {
			lazyConvTile(hatP, L, j, kn, toP.lazyCap, y, toP.dstRed[j], outP[j][k0:k0+kn])
		}
	}
	toQ.scratch.PutShard(shard, y)
}

// convertBoth52Range is convertBothRange on the AVX512-IFMA kernels: the two
// dual converters share the same source basis (validated by
// NewDualConverter), so step 1 runs once per tile through shoupMulVec52 and
// both target bases consume the same channel-major tile via convAcc52. The
// identity-copy fast path for the group's own Q channels is preserved
// unchanged. Byte-identical to the scalar range body for the same reasons as
// convertLazy52Range.
//
//alchemist:hot
func (dc *DualConverter) convertBoth52Range(srcLevel int, in, outQ, outP [][]uint64, nQ, t0, t1, shard int) {
	n := len(in[0])
	L := srcLevel + 1
	toQ, toP := dc.ToQ, dc.ToP
	y := toQ.scratch.GetShard(shard, L*convBlock)
	invRow, inv52Row := toQ.qiHatInv[srcLevel], toQ.qiHatInv52[srcLevel]
	hatQ := toQ.qiHat[srcLevel]
	hatP := toP.qiHat[srcLevel]
	var hc, lo, hi [convBlock]uint64
	for k0 := t0 * convBlock; k0 < t1*convBlock && k0 < n; k0 += convBlock {
		kn := n - k0
		if kn > convBlock {
			kn = convBlock
		}
		for i := 0; i < L; i++ {
			shoupMulVec52(y[i*convBlock:i*convBlock+kn], in[i][k0:k0+kn], invRow[i], inv52Row[i], toQ.Src[i])
		}
		for j := 0; j < nQ; j++ {
			if dc.qOff >= 0 && j >= dc.qOff && j < dc.qOff+L {
				copy(outQ[j][k0:k0+kn], in[j-dc.qOff][k0:k0+kn])
				continue
			}
			for i := 0; i < L; i++ {
				hc[i] = hatQ[i][j]
			}
			convAcc52(y, hc[:L], lo[:kn], hi[:kn], convBlock)
			convFold52(toQ.dstRed[j], lo[:kn], hi[:kn], outQ[j][k0:k0+kn])
		}
		for j := range toP.Dst {
			for i := 0; i < L; i++ {
				hc[i] = hatP[i][j]
			}
			convAcc52(y, hc[:L], lo[:kn], hi[:kn], convBlock)
			convFold52(toP.dstRed[j], lo[:kn], hi[:kn], outP[j][k0:k0+kn])
		}
	}
	toQ.scratch.PutShard(shard, y)
}

// Decomposer batches the dual conversion over every digit group of a hybrid
// keyswitch: one call performs the whole ModUp for all digits.
type Decomposer struct {
	Alpha  int
	Groups []*DualConverter
}

// NewDecomposer wraps the per-group dual converters (one per digit group,
// each over alpha consecutive source moduli).
func NewDecomposer(alpha int, groups []*DualConverter) *Decomposer {
	return &Decomposer{Alpha: alpha, Groups: groups}
}

// GroupsAt returns how many digit groups are active at the given level:
// ceil((level+1)/alpha).
func (d *Decomposer) GroupsAt(level int) int { return (level + d.Alpha) / d.Alpha }

// GroupRange returns the source channel range [lo, hi) of digit group g,
// clamped to the working level.
func (d *Decomposer) GroupRange(g, level int) (lo, hi int) {
	lo = g * d.Alpha
	hi = lo + d.Alpha
	if hi > level+1 {
		hi = level + 1
	}
	return lo, hi
}

// DecomposeAll performs the full digit decomposition of c (coefficient
// domain, levels 0..level): for each active group g, dQ[g] receives the digit
// extended to the first level+1 Q channels and dP[g] the digit extended to
// the whole P basis. Output is byte-identical to the eager per-group
// pair of ConvertN calls.
//
//alchemist:hot
func (d *Decomposer) DecomposeAll(level int, c *Poly, dQ, dP []*Poly) {
	for g := 0; g < d.GroupsAt(level); g++ {
		lo, hi := d.GroupRange(g, level)
		d.Groups[g].ConvertBoth(hi-lo-1, c.Coeffs[lo:hi], dQ[g].Coeffs, dP[g].Coeffs, level+1)
	}
}
