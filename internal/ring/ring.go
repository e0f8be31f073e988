package ring

import (
	"fmt"
	"math/big"
	"sync"
	"sync/atomic"

	"alchemist/internal/modmath"
)

// Ring is an RNS polynomial ring: the direct product of SubRings sharing the
// same degree N, one per RNS modulus. Operations take an explicit level l and
// touch subrings 0..l, mirroring the leveled structure of CKKS; TFHE uses a
// single-level ring.
type Ring struct {
	SubRings []*SubRing
	N        int
	Moduli   []uint64

	// workers is the goroutine count for channel-parallel transforms
	// (0 or 1 = single-threaded; see SetWorkers). Atomic so a Ring shared
	// by concurrent evaluators can be retuned while transforms run.
	workers atomic.Int32

	// pool holds the resident worker goroutines (parallel.go) and the
	// scratch arenas (pool.go). Both are lazy: a serial, arena-free ring
	// pays nothing for them.
	pool      workerPool
	polyPools atomic.Pointer[[]*polyPool]
	buf       BufPool

	// permCache maps Galois element k → NTT-domain index permutation
	// (automorphism.go); an evaluation reuses a small, fixed key set.
	permCache sync.Map

	// crt[l] holds the CRT reconstruction constants of levels 0..l (crt.go).
	crt []*CRT
}

// NewRing builds an RNS ring of degree n over the given prime moduli.
func NewRing(n int, moduli []uint64) (*Ring, error) {
	if len(moduli) == 0 {
		return nil, fmt.Errorf("ring: no moduli")
	}
	seen := map[uint64]bool{}
	r := &Ring{N: n, Moduli: append([]uint64(nil), moduli...)}
	for _, q := range moduli {
		if seen[q] {
			return nil, fmt.Errorf("ring: duplicate modulus %d", q)
		}
		seen[q] = true
		s, err := NewSubRing(n, q)
		if err != nil {
			return nil, err
		}
		r.SubRings = append(r.SubRings, s)
		r.crt = append(r.crt, newCRT(r.Moduli[:len(r.SubRings)]))
	}
	return r, nil
}

// MaxLevel returns the highest valid level (len(moduli)-1).
func (r *Ring) MaxLevel() int { return len(r.SubRings) - 1 }

// Modulus returns the product of the moduli at levels 0..level as a big.Int.
func (r *Ring) Modulus(level int) *big.Int {
	m := big.NewInt(1)
	for i := 0; i <= level; i++ {
		m.Mul(m, new(big.Int).SetUint64(r.Moduli[i]))
	}
	return m
}

// Poly is an RNS polynomial: Coeffs[i][j] is coefficient j modulo moduli[i].
type Poly struct {
	Coeffs [][]uint64

	// released marks a poly currently resident in a ring arena. Release sets
	// it, Borrow clears it; under SetPoolDebug a second Release of the same
	// poly panics instead of corrupting the pool with a double entry (the two
	// later Borrows would alias one buffer).
	released bool

	// borrowPC is the call site of the Borrow that issued this poly, captured
	// only under SetPoolDebug so a double-Release panic can name the borrow
	// the way the static arena-lifetime findings do ("borrowed at …").
	borrowPC uintptr
}

// NewPoly allocates a zero polynomial with level+1 RNS components.
func (r *Ring) NewPoly(level int) *Poly {
	p := &Poly{Coeffs: make([][]uint64, level+1)}
	backing := make([]uint64, (level+1)*r.N)
	for i := range p.Coeffs {
		p.Coeffs[i], backing = backing[:r.N:r.N], backing[r.N:]
	}
	return p
}

// Level returns the polynomial's level (number of RNS components - 1).
func (p *Poly) Level() int { return len(p.Coeffs) - 1 }

// Zero clears p at levels 0..level.
func (r *Ring) Zero(level int, p *Poly) {
	for i := 0; i <= level; i++ {
		c := p.Coeffs[i]
		for j := range c {
			c[j] = 0
		}
	}
}

// CopyLevel copies src into dst at levels 0..level.
func (r *Ring) CopyLevel(level int, src, dst *Poly) {
	for i := 0; i <= level; i++ {
		copy(dst.Coeffs[i], src.Coeffs[i])
	}
}

// Clone returns a deep copy of p restricted to levels 0..level.
func (r *Ring) Clone(level int, p *Poly) *Poly {
	out := r.NewPoly(level)
	r.CopyLevel(level, p, out)
	return out
}

// Equal reports whether a and b agree at levels 0..level.
func (r *Ring) Equal(level int, a, b *Poly) bool {
	for i := 0; i <= level; i++ {
		for j := 0; j < r.N; j++ {
			if a.Coeffs[i][j] != b.Coeffs[i][j] {
				return false
			}
		}
	}
	return true
}

// NTT transforms p in place at levels 0..level (lazy-reduction kernel,
// limb-parallel when SetWorkers enabled it). The serial guard and the op-
// coded job keep the steady state allocation-free either way.
//
//alchemist:hot
func (r *Ring) NTT(level int, p *Poly) {
	if parts := r.parWidth(level + 1); parts > 1 {
		j := r.getJob()
		j.op, j.a, j.tasks = opNTT, p, level+1
		r.runParallel(j, parts)
		return
	}
	for i := 0; i <= level; i++ {
		r.SubRings[i].NTTLazy(p.Coeffs[i])
	}
}

// INTT transforms p back to coefficient order in place at levels 0..level
// (lazy-reduction kernel, limb-parallel when SetWorkers enabled it).
//
//alchemist:hot
func (r *Ring) INTT(level int, p *Poly) {
	if parts := r.parWidth(level + 1); parts > 1 {
		j := r.getJob()
		j.op, j.a, j.tasks = opINTT, p, level+1
		r.runParallel(j, parts)
		return
	}
	for i := 0; i <= level; i++ {
		r.SubRings[i].INTTLazy(p.Coeffs[i])
	}
}

// elemParWidth is parWidth gated on the degree floor for the elementwise
// kernels: one limb of a small ring is less work than the submit/barrier
// handshake, so those stay serial regardless of the worker setting.
func (r *Ring) elemParWidth(tasks int) int {
	if r.N < minElemParN {
		return 1
	}
	return r.parWidth(tasks)
}

// Add sets out = a + b at levels 0..level.
func (r *Ring) Add(level int, a, b, out *Poly) {
	if parts := r.elemParWidth(level + 1); parts > 1 {
		j := r.getJob()
		j.op, j.a, j.b, j.out, j.tasks = opAdd, a, b, out, level+1
		r.runParallel(j, parts)
		return
	}
	for i := 0; i <= level; i++ {
		r.SubRings[i].Add(a.Coeffs[i], b.Coeffs[i], out.Coeffs[i])
	}
}

// Sub sets out = a - b at levels 0..level.
func (r *Ring) Sub(level int, a, b, out *Poly) {
	if parts := r.elemParWidth(level + 1); parts > 1 {
		j := r.getJob()
		j.op, j.a, j.b, j.out, j.tasks = opSub, a, b, out, level+1
		r.runParallel(j, parts)
		return
	}
	for i := 0; i <= level; i++ {
		r.SubRings[i].Sub(a.Coeffs[i], b.Coeffs[i], out.Coeffs[i])
	}
}

// Neg sets out = -a at levels 0..level.
func (r *Ring) Neg(level int, a, out *Poly) {
	if parts := r.elemParWidth(level + 1); parts > 1 {
		j := r.getJob()
		j.op, j.a, j.out, j.tasks = opNeg, a, out, level+1
		r.runParallel(j, parts)
		return
	}
	for i := 0; i <= level; i++ {
		r.SubRings[i].Neg(a.Coeffs[i], out.Coeffs[i])
	}
}

// MulCoeffs sets out = a ⊙ b (pointwise, NTT domain) at levels 0..level.
func (r *Ring) MulCoeffs(level int, a, b, out *Poly) {
	if parts := r.elemParWidth(level + 1); parts > 1 {
		j := r.getJob()
		j.op, j.a, j.b, j.out, j.tasks = opMul, a, b, out, level+1
		r.runParallel(j, parts)
		return
	}
	for i := 0; i <= level; i++ {
		r.SubRings[i].MulCoeffs(a.Coeffs[i], b.Coeffs[i], out.Coeffs[i])
	}
}

// MulCoeffsShoup sets out = a ⊙ b (pointwise, NTT domain) at levels 0..level
// for a fixed operand b whose Shoup constants bShoup come from
// ShoupConstants. out may alias a.
func (r *Ring) MulCoeffsShoup(level int, a, b, bShoup, out *Poly) {
	if parts := r.elemParWidth(level + 1); parts > 1 {
		j := r.getJob()
		j.op, j.a, j.b, j.c, j.out, j.tasks = opMulShoup, a, b, bShoup, out, level+1
		r.runParallel(j, parts)
		return
	}
	for i := 0; i <= level; i++ {
		r.SubRings[i].MulCoeffsShoup(a.Coeffs[i], b.Coeffs[i], bShoup.Coeffs[i], out.Coeffs[i])
	}
}

// ShoupConstants sets out to the Shoup constants of b at levels 0..level,
// the precomputation that makes b a fixed operand of MulCoeffsShoup. Setup
// path: one 128-by-64-bit division per coefficient.
func (r *Ring) ShoupConstants(level int, b, out *Poly) {
	for i := 0; i <= level; i++ {
		r.SubRings[i].ShoupConstants(b.Coeffs[i], out.Coeffs[i])
	}
}

// MulCoeffsAndAdd sets out += a ⊙ b (pointwise, NTT domain) at levels 0..level.
func (r *Ring) MulCoeffsAndAdd(level int, a, b, out *Poly) {
	if parts := r.elemParWidth(level + 1); parts > 1 {
		j := r.getJob()
		j.op, j.a, j.b, j.out, j.tasks = opMulAdd, a, b, out, level+1
		r.runParallel(j, parts)
		return
	}
	for i := 0; i <= level; i++ {
		r.SubRings[i].MulCoeffsAndAdd(a.Coeffs[i], b.Coeffs[i], out.Coeffs[i])
	}
}

// MulScalar sets out = c·a at levels 0..level, c given as a uint64 applied in
// every RNS channel.
func (r *Ring) MulScalar(level int, a *Poly, c uint64, out *Poly) {
	if parts := r.elemParWidth(level + 1); parts > 1 {
		j := r.getJob()
		j.op, j.a, j.out, j.scalar, j.tasks = opMulScalar, a, out, c, level+1
		r.runParallel(j, parts)
		return
	}
	for i := 0; i <= level; i++ {
		r.SubRings[i].MulScalar(a.Coeffs[i], c, out.Coeffs[i])
	}
}

// MulScalarBig sets out = c·a at levels 0..level for a big.Int constant.
func (r *Ring) MulScalarBig(level int, a *Poly, c *big.Int, out *Poly) {
	tmp := new(big.Int)
	for i := 0; i <= level; i++ {
		qi := new(big.Int).SetUint64(r.Moduli[i])
		ci := tmp.Mod(c, qi)
		if ci.Sign() < 0 {
			ci.Add(ci, qi)
		}
		r.SubRings[i].MulScalar(a.Coeffs[i], ci.Uint64(), out.Coeffs[i])
	}
}

// PolyToBigCoeffs reconstructs coefficient j of p (levels 0..level) over the
// full modulus via CRT. Reference path for tests.
func (r *Ring) PolyToBigCoeffs(level int, p *Poly) []*big.Int {
	moduli := r.Moduli[:level+1]
	out := make([]*big.Int, r.N)
	res := make([]uint64, level+1)
	for j := 0; j < r.N; j++ {
		for i := 0; i <= level; i++ {
			res[i] = p.Coeffs[i][j]
		}
		out[j] = modmath.CRTReconstruct(res, moduli)
	}
	return out
}

// SetBigCoeffs sets p from full-precision coefficients (reduced mod each q_i).
func (r *Ring) SetBigCoeffs(level int, coeffs []*big.Int, p *Poly) {
	moduli := r.Moduli[:level+1]
	for j := 0; j < r.N && j < len(coeffs); j++ {
		res := modmath.CRTDecompose(coeffs[j], moduli)
		for i := 0; i <= level; i++ {
			p.Coeffs[i][j] = res[i]
		}
	}
}

// SignedCoeff interprets residue x mod q as a centered value in (-q/2, q/2].
func SignedCoeff(x, q uint64) int64 {
	if x > q/2 {
		return int64(x) - int64(q)
	}
	return int64(x)
}
