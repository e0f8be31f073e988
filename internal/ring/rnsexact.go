package ring

import (
	"math/big"

	"alchemist/internal/modmath"
)

// Exact basis conversion (HPS floating-point correction): unlike Convert,
// which returns x + u·Q for a small overshoot u, ConvertExact subtracts the
// overshoot by estimating u = round(Σ y_i/q_i) in floating point. With
// centered=true the result is the centered representative (x - Q when
// x > Q/2), the representative an exact BGV division or decode reads. No
// production path runs it: the t-scaled ModDown and rescale of the
// Extender keep the plaintext without it, and the tests use it as their
// independent oracle. It assumes the plain (unscaled) converter tables.
//
// The float estimate is exact unless the fractional sum lands within the
// accumulated rounding error (≈2^-45 per term) of a half-integer, which the
// schemes' noise distributions make vanishingly unlikely.

// qModDst returns Q_l mod p_j for the converter's source prefix. The cache
// is built on first use without synchronization: a BasisConverter is owned by
// one evaluator, matching the rest of its (table-immutable, scratch-pooled)
// concurrency contract.
func (bc *BasisConverter) qModDst(srcLevel, j int) uint64 {
	// Computed on demand and cached.
	if bc.qModP == nil {
		bc.qModP = make([][]uint64, len(bc.Src))
	}
	if bc.qModP[srcLevel] == nil {
		row := make([]uint64, len(bc.Dst))
		q := big.NewInt(1)
		for i := 0; i <= srcLevel; i++ {
			q.Mul(q, new(big.Int).SetUint64(bc.Src[i]))
		}
		tmp := new(big.Int)
		for jj, pj := range bc.Dst {
			row[jj] = tmp.Mod(q, new(big.Int).SetUint64(pj)).Uint64()
		}
		bc.qModP[srcLevel] = row
	}
	return bc.qModP[srcLevel][j]
}

// ConvertExact performs the overshoot-free basis conversion into the first
// nDst target channels. Like ConvertN it is tiled over convBlock coefficients
// with the y_i scratch borrowed from the converter's arena; the per-tile
// overshoot estimates live on the stack. The per-coefficient floating-point
// accumulation order is unchanged, so results are byte-identical to the
// untiled formula.
//
//alchemist:hot
func (bc *BasisConverter) ConvertExact(srcLevel int, in, out [][]uint64, nDst int, centered bool) {
	n := len(in[0])
	L := srcLevel + 1
	y := bc.scratch.Get(L * convBlock)
	invRow, invSRow := bc.qiHatInv[srcLevel], bc.qiHatInvShoup[srcLevel]
	hatRow, hatSRow := bc.qiHat[srcLevel], bc.qiHatShoup[srcLevel]
	var vs [convBlock]uint64 // overshoot u per coefficient of the tile
	var frac [convBlock]float64
	// Warm the qModDst cache outside the tile loop (it allocates on first use).
	if nDst > 0 {
		bc.qModDst(srcLevel, 0)
	}
	for k0 := 0; k0 < n; k0 += convBlock {
		kn := n - k0
		if kn > convBlock {
			kn = convBlock
		}
		for k := 0; k < kn; k++ {
			frac[k] = 0
		}
		for i := 0; i < L; i++ {
			qi := bc.Src[i]
			inv, invS := invRow[i], invSRow[i]
			src := in[i][k0 : k0+kn]
			yb := y[i*convBlock : i*convBlock+kn]
			fq := float64(qi)
			for k := range src {
				yi := modmath.MulModShoup(src[k], inv, invS, qi)
				yb[k] = yi
				frac[k] += float64(yi) / fq
			}
		}
		for k := 0; k < kn; k++ {
			// frac ≈ (Σ y_i·q̂_i)/Q = u + value/Q with 0 ≤ u ≤ srcLevel+1.
			if centered {
				// u = round(frac): value - u·Q lands in (-Q/2, Q/2].
				vs[k] = uint64(frac[k] + 0.5)
			} else {
				// u = floor(frac): value - u·Q lands in [0, Q).
				vs[k] = uint64(frac[k])
			}
		}
		for j := 0; j < nDst; j++ {
			pj := bc.Dst[j]
			red := bc.dstRed[j]
			dst := out[j][k0 : k0+kn]
			qMod := bc.qModDst(srcLevel, j)
			for k := range dst {
				dst[k] = 0
			}
			for i := 0; i < L; i++ {
				h, hs := hatRow[i][j], hatSRow[i][j]
				yb := y[i*convBlock : i*convBlock+kn]
				for k := range yb {
					dst[k] = modmath.AddMod(dst[k], modmath.MulModShoup(red.ReduceWord(yb[k]), h, hs, pj), pj)
				}
			}
			for k := range dst {
				// Subtract u·Q (mod p_j); with centering u was rounded, so the
				// result is the centered representative.
				sub := modmath.MulMod(red.ReduceWord(vs[k]), qMod, pj)
				dst[k] = modmath.SubMod(dst[k], sub, pj)
			}
		}
	}
	bc.scratch.Put(y)
}
