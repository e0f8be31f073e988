package ring

import (
	"math/bits"

	"alchemist/internal/modmath"
)

// Fused keyswitch inner product: Σ_g φ(d_g) ⊙ k_g for both key halves with
// each coefficient's two 128-bit sums kept unreduced in registers.
//
// An eager inner product reduces every product on the spot (Barrett per
// multiply, conditional subtract per add). KSAccumulate instead keeps each
// coefficient's two 128-bit sums (one per key half) in registers across ALL
// digit groups and writes each output exactly once, already folded: per
// coefficient the work collapses to g loads of the shared digit, 2g widening
// multiplies with carry chains, and two Barrett folds. Both key halves ride
// one digit load, and under a Galois permutation the gather index is looked
// up once per coefficient instead of once per (group, half). This is the
// software counterpart of the accelerator's deferred-reduction Meta-OP
// accumulation ((M8A8)_L R8: L multiply-adds, ONE reduction). The result is
// bit-identical to the eager inner product — same products, same exact
// fold — which the fused-vs-eager tests pin.
//
// Capacity: a chunk of m groups holds at most m·q² per sum, and
// Barrett.Reduce folds any x < q·2^64 (pinned by FuzzBarrettReduceWide), so
// a chunk is safe while m·q ≤ 2^64. NewBarrett enforces q < 2^62, so
// ksChunk = 4 fits every modulus; chunk results combine with an exact
// modular add, so the chunking never changes the value. The small fixed
// chunk also lets every chunk width run a specialized kernel with the slice
// headers hoisted into locals — the slice-of-slices indexing a
// variable-width loop would pay per term is the dominant cost at these
// operand sizes.

// ksChunk bounds how many digit groups one register pass covers. Every width
// in [1, ksChunk] has a dedicated kernel below.
const ksChunk = 4

// KSAccumulate computes the two halves of the keyswitch inner product over
// one target basis at levels 0..level:
//
//	outB = (Σ_g φ(d[g]) ⊙ kB[g]) mod q,  outA = (Σ_g φ(d[g]) ⊙ kA[g]) mod q
//
// with φ = φ_k when perm is set (d in the NTT domain; the permutation fuses
// into the multiply as a gather) and the identity otherwise. outB/outA are
// fully reduced and overwritten (no zeroing needed beforehand).
//
//alchemist:hot
func (r *Ring) KSAccumulate(level int, d, kB, kA []*Poly, k uint64, perm bool, outB, outA *Poly) {
	var pi []int32
	if perm {
		pi = r.automorphismPerm(k & uint64(2*r.N-1))
	}
	// Limb-parallel dispatch: each partition runs the full digit-group chunk
	// loop over its own limb range with its own 128-bit register accumulators
	// and its own gather scratch (per-partition arena shard), so partitions
	// share nothing but read-only operands and the result is byte-identical
	// to the serial limb loop.
	if parts := r.parWidth(level + 1); parts > 1 {
		j := r.getJob()
		j.op, j.dp, j.kb, j.ka, j.pi, j.a, j.out, j.tasks = opKSAcc, d, kB, kA, pi, outB, outA, level+1
		r.runParallel(j, parts)
		return
	}
	r.ksAccLimbs(0, level+1, 0, d, kB, kA, pi, outB, outA)
}

// ksAccLimbs accumulates the keyswitch inner product for limbs [lo, hi),
// drawing gather scratch from the given arena shard. This is the partition
// body of KSAccumulate; outB doubles as the job's `a` operand slot.
//
//alchemist:hot
func (r *Ring) ksAccLimbs(lo, hi, shard int, d, kB, kA []*Poly, pi []int32, outB, outA *Poly) {
	n := r.N
	// With the vector kernels available, the permuted digit is materialized
	// once per (level, group) by the 4-wide VPGATHERDQ kernel into pooled
	// scratch, and the chunk kernels then stream it sequentially — the same
	// gather unit the automorphism path uses, amortized across both key
	// halves and freeing the multiply loop of its random loads.
	gatherKern := pi != nil && useNTTKern && n&3 == 0
	var dg [ksChunk][]uint64
	if gatherKern {
		for g := range dg {
			dg[g] = r.buf.GetShard(shard, n)[:n:n]
		}
	}
	var ds, bs, as [ksChunk][]uint64
	for i := lo; i < hi; i++ {
		s := r.SubRings[i]
		red, q := s.barrett, s.Q
		ob, oa := outB.Coeffs[i][:n:n], outA.Coeffs[i][:n:n]
		for g0 := 0; g0 < len(d); g0 += ksChunk {
			gn := len(d) - g0
			if gn > ksChunk {
				gn = ksChunk
			}
			for g := 0; g < gn; g++ {
				ds[g] = d[g0+g].Coeffs[i][:n:n]
				bs[g] = kB[g0+g].Coeffs[i][:n:n]
				as[g] = kA[g0+g].Coeffs[i][:n:n]
			}
			switch {
			case gatherKern:
				for g := 0; g < gn; g++ {
					gatherIdxVec(dg[g], ds[g], pi)
					ds[g] = dg[g]
				}
				ksAccChunk(ds[:gn], bs[:gn], as[:gn], red, q, g0 == 0, ob, oa)
			case pi != nil:
				ksAccChunkGather(ds[:gn], bs[:gn], as[:gn], pi, red, q, g0 == 0, ob, oa)
			default:
				ksAccChunk(ds[:gn], bs[:gn], as[:gn], red, q, g0 == 0, ob, oa)
			}
		}
	}
	if gatherKern {
		for g := range dg {
			r.buf.PutShard(shard, dg[g])
		}
	}
}

// ksAccChunk accumulates one chunk of digit groups for one channel, both key
// halves per pass. first selects overwrite vs exact modular combine with the
// previous chunk's fold. Each chunk width gets a dedicated loop with the
// slice headers in locals so the inner loop is pure load → widening multiply
// → carry chain.
func ksAccChunk(ds, bs, as [][]uint64, red modmath.Barrett, q uint64, first bool, outB, outA []uint64) {
	n := len(outB)
	switch len(ds) {
	case 1:
		d0, b0, a0 := ds[0], bs[0], as[0]
		for k := 0; k < n; k++ {
			dk := d0[k]
			bh, bl := bits.Mul64(dk, b0[k])
			ah, al := bits.Mul64(dk, a0[k])
			ksStore(red, q, first, outB, outA, k, bh, bl, ah, al)
		}
	case 2:
		d0, b0, a0 := ds[0], bs[0], as[0]
		d1, b1, a1 := ds[1], bs[1], as[1]
		for k := 0; k < n; k++ {
			dk := d0[k]
			bh, bl := bits.Mul64(dk, b0[k])
			ah, al := bits.Mul64(dk, a0[k])
			bh, bl, ah, al = ksTerm(d1[k], b1[k], a1[k], bh, bl, ah, al)
			ksStore(red, q, first, outB, outA, k, bh, bl, ah, al)
		}
	case 3:
		d0, b0, a0 := ds[0], bs[0], as[0]
		d1, b1, a1 := ds[1], bs[1], as[1]
		d2, b2, a2 := ds[2], bs[2], as[2]
		for k := 0; k < n; k++ {
			dk := d0[k]
			bh, bl := bits.Mul64(dk, b0[k])
			ah, al := bits.Mul64(dk, a0[k])
			bh, bl, ah, al = ksTerm(d1[k], b1[k], a1[k], bh, bl, ah, al)
			bh, bl, ah, al = ksTerm(d2[k], b2[k], a2[k], bh, bl, ah, al)
			ksStore(red, q, first, outB, outA, k, bh, bl, ah, al)
		}
	default:
		d0, b0, a0 := ds[0], bs[0], as[0]
		d1, b1, a1 := ds[1], bs[1], as[1]
		d2, b2, a2 := ds[2], bs[2], as[2]
		d3, b3, a3 := ds[3], bs[3], as[3]
		for k := 0; k < n; k++ {
			dk := d0[k]
			bh, bl := bits.Mul64(dk, b0[k])
			ah, al := bits.Mul64(dk, a0[k])
			bh, bl, ah, al = ksTerm(d1[k], b1[k], a1[k], bh, bl, ah, al)
			bh, bl, ah, al = ksTerm(d2[k], b2[k], a2[k], bh, bl, ah, al)
			bh, bl, ah, al = ksTerm(d3[k], b3[k], a3[k], bh, bl, ah, al)
			ksStore(red, q, first, outB, outA, k, bh, bl, ah, al)
		}
	}
}

// ksAccChunkGather is ksAccChunk with the Galois permutation fused into the
// digit load: index pi[k] is resolved once per coefficient and shared by
// every group and both key halves.
func ksAccChunkGather(ds, bs, as [][]uint64, pi []int32, red modmath.Barrett, q uint64, first bool, outB, outA []uint64) {
	n := len(outB)
	_ = pi[n-1]
	switch len(ds) {
	case 1:
		d0, b0, a0 := ds[0], bs[0], as[0]
		for k := 0; k < n; k++ {
			dk := d0[pi[k]]
			bh, bl := bits.Mul64(dk, b0[k])
			ah, al := bits.Mul64(dk, a0[k])
			ksStore(red, q, first, outB, outA, k, bh, bl, ah, al)
		}
	case 2:
		d0, b0, a0 := ds[0], bs[0], as[0]
		d1, b1, a1 := ds[1], bs[1], as[1]
		for k := 0; k < n; k++ {
			j := pi[k]
			dk := d0[j]
			bh, bl := bits.Mul64(dk, b0[k])
			ah, al := bits.Mul64(dk, a0[k])
			bh, bl, ah, al = ksTerm(d1[j], b1[k], a1[k], bh, bl, ah, al)
			ksStore(red, q, first, outB, outA, k, bh, bl, ah, al)
		}
	case 3:
		d0, b0, a0 := ds[0], bs[0], as[0]
		d1, b1, a1 := ds[1], bs[1], as[1]
		d2, b2, a2 := ds[2], bs[2], as[2]
		for k := 0; k < n; k++ {
			j := pi[k]
			dk := d0[j]
			bh, bl := bits.Mul64(dk, b0[k])
			ah, al := bits.Mul64(dk, a0[k])
			bh, bl, ah, al = ksTerm(d1[j], b1[k], a1[k], bh, bl, ah, al)
			bh, bl, ah, al = ksTerm(d2[j], b2[k], a2[k], bh, bl, ah, al)
			ksStore(red, q, first, outB, outA, k, bh, bl, ah, al)
		}
	default:
		d0, b0, a0 := ds[0], bs[0], as[0]
		d1, b1, a1 := ds[1], bs[1], as[1]
		d2, b2, a2 := ds[2], bs[2], as[2]
		d3, b3, a3 := ds[3], bs[3], as[3]
		for k := 0; k < n; k++ {
			j := pi[k]
			dk := d0[j]
			bh, bl := bits.Mul64(dk, b0[k])
			ah, al := bits.Mul64(dk, a0[k])
			bh, bl, ah, al = ksTerm(d1[j], b1[k], a1[k], bh, bl, ah, al)
			bh, bl, ah, al = ksTerm(d2[j], b2[k], a2[k], bh, bl, ah, al)
			bh, bl, ah, al = ksTerm(d3[j], b3[k], a3[k], bh, bl, ah, al)
			ksStore(red, q, first, outB, outA, k, bh, bl, ah, al)
		}
	}
}

// ksTerm folds one digit·key term into both running 128-bit sums.
func ksTerm(dk, bk, ak, bh, bl, ah, al uint64) (uint64, uint64, uint64, uint64) {
	ph, pl := bits.Mul64(dk, bk)
	var c uint64
	bl, c = bits.Add64(bl, pl, 0)
	bh += ph + c
	ph, pl = bits.Mul64(dk, ak)
	al, c = bits.Add64(al, pl, 0)
	ah += ph + c
	return bh, bl, ah, al
}

// ksStore folds both sums and writes coefficient k, combining exactly with
// the previous chunk's residue unless this is the first chunk.
func ksStore(red modmath.Barrett, q uint64, first bool, outB, outA []uint64, k int, bh, bl, ah, al uint64) {
	rb := red.Reduce(bh, bl)
	ra := red.Reduce(ah, al)
	if !first {
		rb = modmath.AddMod(rb, outB[k], q)
		ra = modmath.AddMod(ra, outA[k], q)
	}
	outB[k], outA[k] = rb, ra
}
