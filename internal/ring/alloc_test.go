// The race detector makes sync.Pool drop a random fraction of Puts (to
// shake out pool races), so zero-allocation pins cannot hold under -race.
//go:build !race

package ring

import (
	"testing"

	"alchemist/internal/modmath"
)

// Steady-state allocation pins for the //alchemist:hot kernels. Once the
// arenas and caches are warm, a transform or conversion must not allocate:
// allocation in these loops is the software analogue of an accelerator
// spilling to HBM mid-kernel, and it is what the scratch pools exist to
// eliminate. Each pin runs on the serial path (workers=1, the default), which
// is also the path CI measures.

// TestPoolAllocFreeSteadyState pins the arena's core promise: a warm
// Get/Put (and Borrow/Release) cycle performs zero allocations. This is what
// distinguishes the header-boxing-free design from a naive sync.Pool of
// slices, which allocates a 3-word interface box per Put.
func TestPoolAllocFreeSteadyState(t *testing.T) {
	var bp BufPool
	bp.Put(bp.Get(1024)) // warm
	if n := testing.AllocsPerRun(100, func() {
		b := bp.Get(1024)
		bp.Put(b)
	}); n != 0 {
		t.Errorf("warm BufPool Get/Put allocates %.1f per op, want 0", n)
	}

	r := poolRing(t)
	level := r.MaxLevel()
	r.Release(r.Borrow(level)) // warm
	if n := testing.AllocsPerRun(100, func() {
		p := r.Borrow(level)
		r.Release(p)
	}); n != 0 {
		t.Errorf("warm Borrow/Release allocates %.1f per op, want 0", n)
	}
}

func allocRings(t *testing.T) (*Ring, *Ring) {
	t.Helper()
	const n = 256
	primes, err := modmath.GenerateNTTPrimes(40, uint64(2*n), 6)
	if err != nil {
		t.Fatal(err)
	}
	rq, err := NewRing(n, primes[:4])
	if err != nil {
		t.Fatal(err)
	}
	rp, err := NewRing(n, primes[4:])
	if err != nil {
		t.Fatal(err)
	}
	return rq, rp
}

func TestNTTAllocFree(t *testing.T) {
	rq, _ := allocRings(t)
	level := rq.MaxLevel()
	p := rq.NewPoly(level)
	newUniformSampler(rq, 1).Uniform(level, p)
	rq.NTT(level, p) // warm
	rq.INTT(level, p)
	if n := testing.AllocsPerRun(50, func() {
		rq.NTT(level, p)
		rq.INTT(level, p)
	}); n != 0 {
		t.Errorf("serial NTT+INTT allocates %.1f per op, want 0", n)
	}
}

func TestAutomorphismNTTAllocFree(t *testing.T) {
	rq, _ := allocRings(t)
	level := rq.MaxLevel()
	a := rq.NewPoly(level)
	out := rq.NewPoly(level)
	newUniformSampler(rq, 2).Uniform(level, a)
	k := rq.GaloisElementForRotation(1)
	rq.AutomorphismNTT(level, a, k, out) // warm the permutation cache
	if n := testing.AllocsPerRun(50, func() {
		rq.AutomorphismNTT(level, a, k, out)
	}); n != 0 {
		t.Errorf("warm AutomorphismNTT allocates %.1f per op, want 0", n)
	}
}

func TestModUpModDownAllocFree(t *testing.T) {
	rq, rp := allocRings(t)
	e := NewExtender(rq, rp, 1)
	level := rq.MaxLevel()
	a := rq.NewPoly(level)
	newUniformSampler(rq, 3).Uniform(level, a)
	aP := rp.NewPoly(rp.MaxLevel())
	out := rq.NewPoly(level)

	e.ModUp(level, a, aP) // warm conversion scratch
	if n := testing.AllocsPerRun(50, func() {
		e.ModUp(level, a, aP)
	}); n != 0 {
		t.Errorf("warm ModUp allocates %.1f per op, want 0", n)
	}

	e.ModDown(level, a, aP, out) // warm arena + scratch
	if n := testing.AllocsPerRun(50, func() {
		e.ModDown(level, a, aP, out)
	}); n != 0 {
		t.Errorf("warm ModDown allocates %.1f per op, want 0", n)
	}

	et := NewExtender(rq, rp, 65537)
	et.ModDown(level, a, aP, out) // warm arena + scratch
	if n := testing.AllocsPerRun(50, func() {
		et.ModDown(level, a, aP, out)
	}); n != 0 {
		t.Errorf("warm t-scaled ModDown allocates %.1f per op, want 0", n)
	}
}

func TestRescaleAllocFree(t *testing.T) {
	rq, rp := allocRings(t)
	e := NewExtender(rq, rp, 1)
	level := rq.MaxLevel()
	a := rq.NewPoly(level)
	newUniformSampler(rq, 4).Uniform(level, a)
	out := rq.NewPoly(level - 1)
	e.RescaleByLastModulus(level, a, out) // warm
	if n := testing.AllocsPerRun(50, func() {
		e.RescaleByLastModulus(level, a, out)
	}); n != 0 {
		t.Errorf("RescaleByLastModulus allocates %.1f per op, want 0", n)
	}
	et := NewExtender(rq, rp, 65537)
	et.RescaleByLastModulus(level, a, out) // warm the scratch channel
	if n := testing.AllocsPerRun(50, func() {
		et.RescaleByLastModulus(level, a, out)
	}); n != 0 {
		t.Errorf("t-scaled RescaleByLastModulus allocates %.1f per op, want 0", n)
	}
}

func TestMulCoeffsShoupAllocFree(t *testing.T) {
	rq, _ := allocRings(t)
	level := rq.MaxLevel()
	a, b, bs, out := rq.NewPoly(level), rq.NewPoly(level), rq.NewPoly(level), rq.NewPoly(level)
	s := newUniformSampler(rq, 6)
	s.Uniform(level, a)
	s.Uniform(level, b)
	rq.ShoupConstants(level, b, bs)
	if n := testing.AllocsPerRun(50, func() {
		rq.MulCoeffsShoup(level, a, b, bs, out)
	}); n != 0 {
		t.Errorf("MulCoeffsShoup allocates %.1f per op, want 0", n)
	}
}

// TestDecomposerAllocFree pins the digit-batched dual conversion: the lazy
// stack tiles and the shared step-1 scratch must leave DecomposeAll
// allocation-free once the converter scratch is warm.
func TestDecomposerAllocFree(t *testing.T) {
	rq, rp := allocRings(t)
	level := rq.MaxLevel()
	const alpha = 2
	var duals []*DualConverter
	for g := 0; g*alpha < len(rq.Moduli); g++ {
		hi := (g + 1) * alpha
		if hi > len(rq.Moduli) {
			hi = len(rq.Moduli)
		}
		src := rq.Moduli[g*alpha : hi]
		dc, err := NewDualConverter(
			NewBasisConverter(src, rq.Moduli),
			NewBasisConverter(src, rp.Moduli), g*alpha)
		if err != nil {
			t.Fatal(err)
		}
		duals = append(duals, dc)
	}
	dec := NewDecomposer(alpha, duals)
	c := rq.NewPoly(level)
	newUniformSampler(rq, 7).Uniform(level, c)
	groups := dec.GroupsAt(level)
	dQ := make([]*Poly, groups)
	dP := make([]*Poly, groups)
	for g := range dQ {
		dQ[g] = rq.NewPoly(level)
		dP[g] = rp.NewPoly(rp.MaxLevel())
	}
	dec.DecomposeAll(level, c, dQ, dP) // warm
	if n := testing.AllocsPerRun(20, func() {
		dec.DecomposeAll(level, c, dQ, dP)
	}); n != 0 {
		t.Errorf("warm DecomposeAll allocates %.1f per op, want 0", n)
	}
}

// TestVectorKernelDispatchAllocFree pins the asm-kernel dispatch paths at
// the SubRing level: on hardware with the vector tiers, NTTLazy/INTTLazy
// take the blocked kernel drivers (N ≥ minVecN), and those drivers must
// stay allocation-free — all twiddle tables are precomputed SoA slices and
// the stage loops index them in place.
func TestVectorKernelDispatchAllocFree(t *testing.T) {
	if !useNTTKern {
		t.Skip("scalar-only build: vector kernels compiled out")
	}
	rq, _ := allocRings(t)
	s := rq.SubRings[0]
	p := make([]uint64, s.N)
	newUniformSampler(rq, 9).Uniform(0, &Poly{Coeffs: [][]uint64{p}})
	s.NTTLazy(p) // warm
	s.INTTLazy(p)
	if n := testing.AllocsPerRun(50, func() {
		s.NTTLazy(p)
		s.INTTLazy(p)
	}); n != 0 {
		t.Errorf("vector NTTLazy+INTTLazy allocates %.1f per op, want 0", n)
	}
}
