// Cross-scheme FHE: the paper's motivating scenario, live. Arithmetic FHE
// (CKKS) is great at SIMD arithmetic but cannot compare; logic FHE (TFHE)
// evaluates arbitrary boolean functions but is slow at bulk arithmetic. The
// bridge (Chimera/Pegasus-style ciphertext switching, refs [5,6] of the
// paper) moves values between them: this example computes x²-0.25 under
// CKKS, switches the results into TFHE, and tests their sign with
// programmable bootstrapping — no decryption anywhere. It then runs the
// mixed workload on the accelerator models, showing why only the unified
// architecture sustains both operator mixes.
package main

import (
	"fmt"
	"log"

	"alchemist"
	"alchemist/internal/bridge"
	"alchemist/internal/ckks"
	"alchemist/internal/tfhe"
)

func main() {
	// --- Setup: one CKKS instance, one TFHE instance, one bridge ----------
	params, err := ckks.GenParams(9, 3, 2, 2, 45, 42, 45)
	if err != nil {
		log.Fatal(err)
	}
	ctx, err := ckks.NewContext(params)
	if err != nil {
		log.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(ctx, 71)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	enc := ckks.NewEncoder(ctx)
	et := ckks.NewEncryptor(ctx, pk, 73)
	ev := ckks.NewEvaluator(ctx, kg.GenEvaluationKeySet(sk, nil, false))

	tf, err := tfhe.NewScheme(tfhe.FastTestParams(), 72)
	if err != nil {
		log.Fatal(err)
	}
	br, err := bridge.New(ctx, kg, sk, tf)
	if err != nil {
		log.Fatal(err)
	}

	// --- Arithmetic phase (CKKS): f(x) = x² - 0.25 on packed slots --------
	xs := []float64{0.9, 0.1, -0.8, 0.3, 0.7, -0.2}
	z := make([]complex128, params.Slots())
	for i, x := range xs {
		z[i] = complex(x, 0)
	}
	level := params.MaxLevel()
	pt, _ := enc.Encode(z, level, params.Scale)
	ct := et.Encrypt(pt, level, params.Scale)
	sq, err := ev.MulRelin(ct, ct)
	if err != nil {
		log.Fatal(err)
	}
	sq, err = ev.Rescale(sq)
	if err != nil {
		log.Fatal(err)
	}
	c := make([]complex128, params.Slots())
	for i := range c {
		c[i] = complex(-0.25, 0)
	}
	cpt, _ := enc.Encode(c, sq.Level, sq.Scale)
	fx := ev.AddPlain(sq, cpt)
	fmt.Println("CKKS: computed f(x) = x² - 0.25 on packed slots (1 Cmult + 1 Padd)")

	// --- Scheme switch + logic phase (TFHE): sign(f(x)) -------------------
	lwes, err := br.ToLWE(fx, len(xs))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("bridge: SlotToCoeff -> LWE extraction -> mod switch -> TFHE key switch")
	fmt.Println("TFHE: one programmable bootstrap per value to binarize the sign:")
	for i, x := range xs {
		signed, err := br.Sign(lwes[i])
		if err != nil {
			log.Fatal(err)
		}
		got := tf.DecryptBool(signed)
		fmt.Printf("  |%+.1f| > 0.5 ?  encrypted verdict: %-5v  (truth: %v)\n",
			x, got, x*x > 0.25)
	}

	// --- The accelerator story --------------------------------------------
	fmt.Println("\nmixed CKKS+TFHE workload on the accelerator models:")
	mix := alchemist.AppWorkloads().CrossScheme()
	res, err := alchemist.Simulate(alchemist.DefaultArch(), mix)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  Alchemist: %.3f ms, %.2f utilization while computing (unified Meta-OP cores)\n",
		res.Seconds*1e3, res.ComputeUtilization)
	for _, bl := range alchemist.Baselines() {
		if bl.Name != "SHARP" && bl.Name != "Strix" {
			continue
		}
		if _, err := alchemist.SimulateBaseline(bl, mix); err != nil {
			fmt.Printf("  %-9s cannot execute the mixed workload: no Bconv datapath\n", bl.Name)
		} else {
			fmt.Printf("  %-9s executes the mix at low utilization (see alchemist sweep -only fig1)\n", bl.Name)
		}
	}
	fmt.Println("\nonly the unified architecture sustains both operator mixes — the paper's core claim")
}
