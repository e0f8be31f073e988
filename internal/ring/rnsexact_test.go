package ring

import (
	"math/big"
	"math/rand"
	"testing"

	"alchemist/internal/modmath"
)

func TestConvertExactMatchesBigInt(t *testing.T) {
	n := 64
	src, err := modmath.GenerateNTTPrimes(45, uint64(2*n), 4)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := modmath.GenerateNTTPrimes(46, uint64(2*n), 3)
	if err != nil {
		t.Fatal(err)
	}
	bc := NewBasisConverter(src, dst)
	rng := rand.New(rand.NewSource(21))
	for level := 0; level < 4; level++ {
		Q := big.NewInt(1)
		for i := 0; i <= level; i++ {
			Q.Mul(Q, new(big.Int).SetUint64(src[i]))
		}
		half := new(big.Int).Rsh(Q, 1)
		in := make([][]uint64, level+1)
		for i := range in {
			in[i] = make([]uint64, n)
		}
		xs := make([]*big.Int, n)
		for k := 0; k < n; k++ {
			xs[k] = new(big.Int).Rand(rng, Q)
			res := modmath.CRTDecompose(xs[k], src[:level+1])
			for i := 0; i <= level; i++ {
				in[i][k] = res[i]
			}
		}
		out := make([][]uint64, len(dst))
		for j := range out {
			out[j] = make([]uint64, n)
		}
		// Non-centered: result ≡ x exactly (no +uQ).
		bc.ConvertExact(level, in, out, len(dst), false)
		for j, pj := range dst {
			pjb := new(big.Int).SetUint64(pj)
			for k := 0; k < n; k++ {
				want := new(big.Int).Mod(xs[k], pjb).Uint64()
				if out[j][k] != want {
					t.Fatalf("level %d: exact Bconv %d != %d", level, out[j][k], want)
				}
			}
		}
		// Centered: result ≡ x - Q when x > Q/2.
		bc.ConvertExact(level, in, out, len(dst), true)
		for j, pj := range dst {
			pjb := new(big.Int).SetUint64(pj)
			for k := 0; k < n; k++ {
				v := new(big.Int).Set(xs[k])
				if v.Cmp(half) > 0 {
					v.Sub(v, Q)
				}
				want := new(big.Int).Mod(v, pjb)
				if want.Sign() < 0 {
					want.Add(want, pjb)
				}
				if out[j][k] != want.Uint64() {
					t.Fatalf("level %d: centered Bconv %d != %d", level, out[j][k], want.Uint64())
				}
			}
		}
	}
}

// modDownExact is ModDown with the exact, centered P→Q conversion in place
// of the lazy one: (x - [x]_P^centered)·P^{-1}, with no overshoot. It
// checks ConvertExact through the ModDown channel step.
func modDownExact(e *Extender, level int, aQ, aP, out *Poly) {
	conv := e.RQ.NewPoly(level)
	e.pToQ.ConvertExact(len(e.RP.Moduli)-1, aP.Coeffs, conv.Coeffs, level+1, true)
	e.modDownLimbs(level, aQ, conv, out)
}

func TestModDownExactNoOvershoot(t *testing.T) {
	// modDownExact(P·m + e) must return exactly m + round-to-nearest of
	// e/P — i.e. m when |e| < P/2.
	n := 64
	qs, _ := modmath.GenerateNTTPrimes(45, uint64(2*n), 4)
	ps, _ := modmath.GenerateNTTPrimes(46, uint64(2*n), 2)
	rQ, _ := NewRing(n, qs)
	rP, _ := NewRing(n, ps)
	ext := NewExtender(rQ, rP, 1)
	level := rQ.MaxLevel()

	P := big.NewInt(1)
	for _, p := range ps {
		P.Mul(P, new(big.Int).SetUint64(p))
	}
	m := randPoly(rQ, level, 22)
	rng := rand.New(rand.NewSource(23))
	yQ := rQ.NewPoly(level)
	rQ.MulScalarBig(level, m, P, yQ)
	yP := rP.NewPoly(rP.MaxLevel())
	for k := 0; k < n; k++ {
		e := int64(rng.Intn(1<<30)) - 1<<29
		for i := 0; i <= level; i++ {
			yQ.Coeffs[i][k] = modmath.AddMod(yQ.Coeffs[i][k], modmath.ReduceSigned(e, qs[i]), qs[i])
		}
		for j := range ps {
			yP.Coeffs[j][k] = modmath.ReduceSigned(e, ps[j])
		}
	}
	out := rQ.NewPoly(level)
	modDownExact(ext, level, yQ, yP, out)
	if !rQ.Equal(level, out, m) {
		t.Fatal("modDownExact(P·m + e) != m for |e| < P/2")
	}
}
