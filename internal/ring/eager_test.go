package ring

import (
	"fmt"

	"alchemist/internal/modmath"
)

// Reference transforms. The shipped NTT is the lazy-butterfly pair in
// nttlazy.go; the eager radix-2 networks, the schoolbook negacyclic product
// and the 4-step (Bailey) NTT below are the oracles the lazy, vector and
// parallel kernels are pinned against.

// NTT transforms coefficients p (natural order) into the NTT domain
// (bit-reversed order) in place, using the negacyclic Cooley–Tukey DIT
// network.
func (s *SubRing) NTT(p []uint64) {
	n, q := s.N, s.Q
	t := n
	for m := 1; m < n; m <<= 1 {
		t >>= 1
		for i := 0; i < m; i++ {
			w := s.psiRev[m+i]
			ws := s.psiRevShoup[m+i]
			j1 := 2 * i * t
			for j := j1; j < j1+t; j++ {
				u := p[j]
				v := modmath.MulModShoup(p[j+t], w, ws, q)
				p[j] = modmath.AddMod(u, v, q)
				p[j+t] = modmath.SubMod(u, v, q)
			}
		}
	}
}

// INTT transforms p from the NTT domain (bit-reversed order) back to natural
// coefficient order in place, using the Gentleman–Sande DIF network and the
// final N^{-1} scaling.
func (s *SubRing) INTT(p []uint64) {
	n, q := s.N, s.Q
	t := 1
	for m := n; m > 1; m >>= 1 {
		h := m >> 1
		j1 := 0
		for i := 0; i < h; i++ {
			w := s.psiInvRev[h+i]
			ws := s.psiInvRevShoup[h+i]
			for j := j1; j < j1+t; j++ {
				u := p[j]
				v := p[j+t]
				p[j] = modmath.AddMod(u, v, q)
				p[j+t] = modmath.MulModShoup(modmath.SubMod(u, v, q), w, ws, q)
			}
			j1 += 2 * t
		}
		t <<= 1
	}
	for j := 0; j < n; j++ {
		p[j] = modmath.MulModShoup(p[j], s.nInv, s.nInvShoup, q)
	}
}

// NegacyclicConvolve computes the schoolbook negacyclic product of a and b
// into out: out = a·b mod (X^N+1, q). O(N^2).
func (s *SubRing) NegacyclicConvolve(a, b, out []uint64) {
	n, q := s.N, s.Q
	acc := make([]uint64, n)
	for i := 0; i < n; i++ {
		ai := a[i]
		if ai == 0 {
			continue
		}
		for j := 0; j < n; j++ {
			p := s.barrett.MulMod(ai, b[j])
			k := i + j
			if k < n {
				acc[k] = modmath.AddMod(acc[k], p, q)
			} else {
				acc[k-n] = modmath.SubMod(acc[k-n], p, q)
			}
		}
	}
	copy(out, acc)
}

// The 4-step (Bailey) NTT decomposes a length-N negacyclic NTT into
// N/n1 row transforms of size n1 plus twiddles and transposes. Alchemist
// uses it so that each computing unit only ever transforms the slots held in
// its private scratchpad (§5.3): for N = 16384 and 128 units, the NTT
// becomes two rounds of 128-point sub-NTTs with one transpose through the
// transpose register file in between.
//
// This software implementation computes the natural-order negacyclic DFT
//
//	X[k] = Σ_j a[j] · ψ^(j(2k+1))
//
// and is validated against an O(N²) evaluation; the accelerator model tiles
// with the same step structure (arch.Config.FourStepTile).

// FourStepNTT computes the natural-order negacyclic NTT of a with an
// n1 × (N/n1) decomposition, returning a fresh slice. n1 must divide N.
func (s *SubRing) FourStepNTT(a []uint64, n1 int) ([]uint64, error) {
	n := s.N
	if n1 <= 0 || n%n1 != 0 {
		return nil, fmt.Errorf("ring: n1=%d does not divide N=%d", n1, n)
	}
	n2 := n / n1
	if n1&(n1-1) != 0 || n2&(n2-1) != 0 {
		return nil, fmt.Errorf("ring: 4-step tile sizes must be powers of two (n1=%d, n2=%d)", n1, n2)
	}
	q := s.Q
	omega := modmath.MulMod(s.Psi, s.Psi, q) // primitive N-th root
	omega1 := modmath.PowMod(omega, uint64(n2), q)
	omega2 := modmath.PowMod(omega, uint64(n1), q)

	// Row-major matrices: row j1 of T is t[j1·n2 : (j1+1)·n2], row k2 of U
	// is u[k2·n1 : (k2+1)·n1].
	scaled := make([]uint64, n)
	t := make([]uint64, n)
	u := make([]uint64, n)
	// Pre-scale by ψ^j (negacyclic fold), laid out as T[j1][j2] = a[j1 + n1·j2].
	psiPow := uint64(1)
	for j := 0; j < n; j++ {
		scaled[j] = modmath.MulMod(a[j], psiPow, q)
		psiPow = modmath.MulMod(psiPow, s.Psi, q)
	}
	for j1 := 0; j1 < n1; j1++ {
		row := t[j1*n2 : (j1+1)*n2]
		for j2 := 0; j2 < n2; j2++ {
			row[j2] = scaled[j1+n1*j2]
		}
	}
	// Step 1: length-n2 cyclic NTT along each row (local to a unit).
	for j1 := 0; j1 < n1; j1++ {
		cyclicNTT(t[j1*n2:(j1+1)*n2], q, omega2)
	}
	// Step 2: twiddle T[j1][k2] *= ω^(j1·k2).
	for j1 := 0; j1 < n1; j1++ {
		row := t[j1*n2 : (j1+1)*n2]
		wRow := modmath.PowMod(omega, uint64(j1), q)
		w := uint64(1)
		for k2 := 0; k2 < n2; k2++ {
			row[k2] = modmath.MulMod(row[k2], w, q)
			w = modmath.MulMod(w, wRow, q)
		}
	}
	// Step 3: transpose (through the transpose register file on hardware).
	for k2 := 0; k2 < n2; k2++ {
		row := u[k2*n1 : (k2+1)*n1]
		for j1 := 0; j1 < n1; j1++ {
			row[j1] = t[j1*n2+k2]
		}
	}
	// Step 4: length-n1 cyclic NTT along each transposed row.
	for k2 := 0; k2 < n2; k2++ {
		cyclicNTT(u[k2*n1:(k2+1)*n1], q, omega1)
	}
	// Final gather: X[k2 + n2·k1] = U[k2][k1] (second transpose, making the
	// output natural-order).
	out := make([]uint64, n)
	for k2 := 0; k2 < n2; k2++ {
		row := u[k2*n1 : (k2+1)*n1]
		for k1 := 0; k1 < n1; k1++ {
			out[k2+n2*k1] = row[k1]
		}
	}
	return out, nil
}

// FourStepINTT inverts FourStepNTT (natural-order negacyclic DFT input).
func (s *SubRing) FourStepINTT(x []uint64, n1 int) ([]uint64, error) {
	n := s.N
	if n1 <= 0 || n%n1 != 0 {
		return nil, fmt.Errorf("ring: n1=%d does not divide N=%d", n1, n)
	}
	n2 := n / n1
	q := s.Q
	omegaInv := modmath.MulMod(s.PsiInv, s.PsiInv, q)
	omega1Inv := modmath.PowMod(omegaInv, uint64(n2), q)
	omega2Inv := modmath.PowMod(omegaInv, uint64(n1), q)

	// Row-major matrices, as in FourStepNTT.
	u := make([]uint64, n)
	t := make([]uint64, n)
	// Reverse the final gather: U[k2][k1] = X[k2 + n2·k1].
	for k2 := 0; k2 < n2; k2++ {
		row := u[k2*n1 : (k2+1)*n1]
		for k1 := 0; k1 < n1; k1++ {
			row[k1] = x[k2+n2*k1]
		}
	}
	for k2 := 0; k2 < n2; k2++ {
		cyclicNTT(u[k2*n1:(k2+1)*n1], q, omega1Inv)
	}
	// Transpose and undo twiddles.
	for j1 := 0; j1 < n1; j1++ {
		row := t[j1*n2 : (j1+1)*n2]
		for k2 := 0; k2 < n2; k2++ {
			row[k2] = u[k2*n1+j1]
		}
	}
	for j1 := 0; j1 < n1; j1++ {
		row := t[j1*n2 : (j1+1)*n2]
		wRow := modmath.PowMod(omegaInv, uint64(j1), q)
		w := uint64(1)
		for k2 := 0; k2 < n2; k2++ {
			row[k2] = modmath.MulMod(row[k2], w, q)
			w = modmath.MulMod(w, wRow, q)
		}
	}
	for j1 := 0; j1 < n1; j1++ {
		cyclicNTT(t[j1*n2:(j1+1)*n2], q, omega2Inv)
	}
	// Un-scale by ψ^{-j}/N and flatten.
	out := make([]uint64, n)
	nInv := modmath.InvMod(uint64(n), q)
	psiPow := nInv
	for j := 0; j < n; j++ {
		j1, j2 := j%n1, j/n1
		out[j] = modmath.MulMod(t[j1*n2+j2], psiPow, q)
		psiPow = modmath.MulMod(psiPow, s.PsiInv, q)
	}
	return out, nil
}

// cyclicNTT computes an in-place natural-order cyclic NTT of a with the
// given primitive len(a)-th root of unity w (len(a) a power of two).
func cyclicNTT(a []uint64, q, w uint64) {
	n := len(a)
	if n == 1 {
		return
	}
	logN := log2(n)
	// Bit-reverse permute, then iterative Cooley–Tukey.
	for i := 0; i < n; i++ {
		j := int(bitrev(uint32(i), logN))
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		wm := modmath.PowMod(w, uint64(n/size), q)
		for start := 0; start < n; start += size {
			wj := uint64(1)
			for j := 0; j < half; j++ {
				u := a[start+j]
				v := modmath.MulMod(a[start+j+half], wj, q)
				a[start+j] = modmath.AddMod(u, v, q)
				a[start+j+half] = modmath.SubMod(u, v, q)
				wj = modmath.MulMod(wj, wm, q)
			}
		}
	}
}
