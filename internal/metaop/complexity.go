package metaop

// Multiplication-complexity accounting for the eager ("origin") and lazy
// (Meta-OP) operator forms. A Barrett modular multiplication costs 3 raw
// multiplications (operand product + two reduction products); the Meta-OP
// defers the reduction across the n-term accumulation, paying 2 reduction
// products once per output instead of per term (Tables 2, 3).

// DecompPolyMultMults returns the raw multiplication count for accumulating
// dnum digit·evk products over one degree-n polynomial channel (Table 2).
func DecompPolyMultMults(dnum, n int, lazy bool) int64 {
	if lazy {
		return int64(dnum+2) * int64(n)
	}
	return 3 * int64(dnum) * int64(n)
}

// ModupMults returns the raw multiplication count of a ModUp from l source
// channels to k target channels of degree n (Table 3; origin
// (3KL+3L)·N, Meta-OP (KL+3L+2K)·N).
func ModupMults(l, k, n int, lazy bool) int64 {
	if lazy {
		return int64(k*l+3*l+2*k) * int64(n)
	}
	return int64(3*k*l+3*l) * int64(n)
}

// ModdownMults returns the raw multiplication count of a ModDown with k
// special channels, l target channels and degree n: the Bconv from P plus
// the per-target (x - conv)·P^{-1} fix-up.
func ModdownMults(l, k, n int, lazy bool) int64 {
	if lazy {
		// scale (3K) + accumulate (K+2 per target) + fix-up modmul (3 per
		// target).
		return int64(3*k+(k+2)*l+3*l) * int64(n)
	}
	return int64(3*k+3*k*l+3*l) * int64(n)
}

// NTTMults returns the raw multiplication count of one degree-n NTT.
// The eager form runs radix-2 butterflies: (n/2)·log2(n) modmuls at 3 raw
// mults each. The lazy form uses the paper's radix-8/radix-4 Meta-OP
// mapping: 40 raw mults per 8 outputs per radix-8 stage (a 10% premium
// over eager — the price the Meta-OP pays on NTT to win everywhere else).
func NTTMults(n int, lazy bool) int64 {
	if !lazy {
		return int64(3) * int64(n/2) * int64(Log2(n))
	}
	r8, r4 := RadixSplit(Log2(n))
	return int64(n/J) * (int64(r8)*40 + int64(r4)*32)
}

// EWMultMults returns the raw multiplication count of an element-wise
// modmul over one degree-n channel (identical in both forms).
func EWMultMults(n int) int64 { return 3 * int64(n) }

// BatchMults sums raw multiplications over a lowered batch list.
func BatchMults(batches []Batch) int64 {
	var total int64
	for _, b := range batches {
		total += b.TotalMults()
	}
	return total
}
