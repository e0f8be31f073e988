package rlwe_test

import (
	"math"
	"testing"

	"alchemist/internal/prng"
	"alchemist/internal/rlwe"
)

// TestSamplersDrawDocumentedDistributions checks the shared samplers over
// 10^6 draws each: the error's deviation is within 1% of sigma and its mass
// at 0 within 1% of the discrete Gaussian's, and the secret is ternary with
// density 2/3, split evenly between ±1. A sampler that truncates toward zero
// instead of rounding reads about 12% narrower with twice the mass at 0.
func TestSamplersDrawDocumentedDistributions(t *testing.T) {
	const draws, sigma = 1000000, 3.2
	secret, noise := rlwe.Samplers(prng.New(7), sigma)
	v := make([]int64, draws)

	noise(v)
	var sum, sumSq float64
	zeros := 0
	for _, x := range v {
		f := float64(x)
		sum += f
		sumSq += f * f
		if x == 0 {
			zeros++
		}
	}
	mean := sum / draws
	std := math.Sqrt(sumSq/draws - mean*mean)
	if math.Abs(std-sigma) > 0.01*sigma {
		t.Errorf("error deviation %.4f, want within 1%% of %.1f", std, sigma)
	}
	var mass float64 // Σ_k exp(-k²/2σ²): the discrete Gaussian's normaliser
	for k := -40; k <= 40; k++ {
		mass += math.Exp(-float64(k*k) / (2 * sigma * sigma))
	}
	p0, want0 := float64(zeros)/draws, 1/mass
	if math.Abs(p0-want0) > 0.01*want0 {
		t.Errorf("P(0) = %.5f, want within 1%% of the discrete Gaussian's %.5f", p0, want0)
	}

	secret(v)
	var plus, minus int
	for _, x := range v {
		switch x {
		case 1:
			plus++
		case -1:
			minus++
		case 0:
		default:
			t.Fatalf("secret coefficient %d, want -1, 0 or 1", x)
		}
	}
	if d := float64(plus+minus) / draws; math.Abs(d-2.0/3.0) > 0.002 {
		t.Errorf("secret density %.4f, want 2/3", d)
	}
	if r := float64(plus) / float64(plus+minus); math.Abs(r-0.5) > 0.002 {
		t.Errorf("share of +1 among non-zero secret coefficients %.4f, want 1/2", r)
	}
}
