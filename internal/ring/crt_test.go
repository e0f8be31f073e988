package ring

import (
	"math"
	"math/big"
	"slices"
	"sync"
	"testing"

	"alchemist/internal/modmath"
	"alchemist/internal/prng"
)

// TestCRTCenteredMatchesOracle checks the word-wise reconstruction against
// the big-int oracle on a wide chain (twenty 61-bit moduli, so Q_l spans up
// to twenty words and its top word may be full) at every level, on random
// residues and on the values next to ±⌊Q_l/2⌋ where the estimate of k
// needs its exact correction.
func TestCRTCenteredMatchesOracle(t *testing.T) {
	const n = 16
	moduli, err := modmath.GenerateNTTPrimes(61, 2*n, 20)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(n, moduli)
	if err != nil {
		t.Fatal(err)
	}
	rng := prng.New(3)
	for level := 0; level <= r.MaxLevel(); level++ {
		crt := r.CRT(level)
		q := r.Modulus(level)
		half := new(big.Int).Rsh(q, 1)
		p := r.NewPoly(level)
		for i := 0; i <= level; i++ {
			for j := 0; j < n; j++ {
				p.Coeffs[i][j] = prng.UniformMod(rng, moduli[i])
			}
		}
		for j, d := range []int64{0, 1, -1, 2, -2} {
			x := new(big.Int).Add(half, big.NewInt(d))
			for i, v := range modmath.CRTDecompose(x, moduli[:level+1]) {
				p.Coeffs[i][j] = v
			}
		}
		mag := make([]uint64, crt.words+1)
		floats := make([]float64, n)
		crt.Float64s(p, floats)
		for j, x := range r.PolyToBigCoeffs(level, p) {
			if x.Cmp(half) > 0 {
				x.Sub(x, q)
			}
			m, neg := crt.centered(p, j, mag)
			got := wordsToBig(m)
			if neg {
				got.Neg(got)
			}
			if got.Cmp(x) != 0 {
				t.Fatalf("level %d coeff %d: reconstructed %v, oracle %v", level, j, got, x)
			}
			want, _ := new(big.Float).SetInt(x).Float64()
			if math.Float64bits(floats[j]) != math.Float64bits(want) {
				t.Fatalf("level %d coeff %d: float %v, oracle %v", level, j, floats[j], want)
			}
		}
	}
}

// TestWordsToFloat64RoundsLikeBigFloat pins the sticky-bit conversion on the
// cases it exists for: exact ties at every alignment inside a word and
// across a word boundary, ties broken by a single low bit, and full top
// words.
func TestWordsToFloat64RoundsLikeBigFloat(t *testing.T) {
	rng := prng.New(4)
	for shift := 0; shift < 200; shift++ {
		for _, sticky := range []bool{false, true} {
			x := new(big.Int).SetUint64(rng.Uint64()>>10 | 1<<53 | 1) // 54-bit odd: a tie
			x.Lsh(x, uint(shift))
			if sticky && shift > 0 {
				x.Add(x, big.NewInt(1))
			}
			want, _ := new(big.Float).SetInt(x).Float64()
			words := make([]uint64, (x.BitLen()+63)/64)
			for w := range words {
				words[w] = new(big.Int).Rsh(x, uint(64*w)).Uint64()
			}
			if got := wordsToFloat64(words); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("shift %d sticky %v: %v, want %v", shift, sticky, got, want)
			}
		}
	}
	full := []uint64{1, math.MaxUint64}
	want, _ := new(big.Float).SetInt(wordsToBig(full)).Float64()
	if got := wordsToFloat64(full); got != want {
		t.Fatalf("full top word: %v, want %v", got, want)
	}
}

func wordsToBig(m []uint64) *big.Int {
	x := new(big.Int)
	for w := len(m) - 1; w >= 0; w-- {
		x.Lsh(x, 64).Or(x, new(big.Int).SetUint64(m[w]))
	}
	return x
}

// TestCRTConcurrentDecoders shares one level's table between goroutines,
// as concurrent Decode calls on one context do: each call brings its own
// scratch, so every goroutine must read the same coefficients (and -race
// must see no shared write).
func TestCRTConcurrentDecoders(t *testing.T) {
	r := raceRing(t)
	level := r.MaxLevel()
	p := randPoly(r, level, 9)
	want := make([]float64, r.N)
	r.CRT(level).Float64s(p, want)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := make([]float64, r.N)
			for i := 0; i < 10; i++ {
				r.CRT(level).Float64s(p, got)
				if !slices.Equal(got, want) {
					t.Error("concurrent decode disagrees with a serial one")
					return
				}
			}
		}()
	}
	wg.Wait()
}
