// Package rlwe is the RNS RLWE core that CKKS, BGV and BFV share: the Q and
// P rings with their digit converters, the key types and the gadget key
// generation, the ciphertext with its wire codec, encryption, decryption,
// the key-free ciphertext arithmetic, the digit-batched decomposition, the
// fused lazy keyswitch, the hoisted Galois apply and the NTT-domain tensor
// with relinearization. To the paper's accelerator the schemes are one
// workload (NTT, Bconv, DecompPolyMult); this package is that workload in
// software, written once.
//
// The one seam between the schemes is ModDown, the division by P that ends
// every keyswitch. CKKS divides exactly (ring.Extender.ModDown); BGV must
// also keep the plaintext modulo t, so it supplies a t-corrected ModDown.
// The hook is bound once when the context is built, so the hot paths call
// it without allocating. The scheme also supplies its secret and error
// samplers and error scale to key generation and encryption. Everything
// that depends on the message encoding (parameters, encoders, scale and
// rescaling) stays in the scheme packages.
package rlwe

import (
	"math/big"
	"sync"

	"alchemist/internal/ring"
)

// Parameters is the ring and gadget shape a scheme shares with the core.
type Parameters struct {
	LogN int
	Q    []uint64 // ciphertext moduli q_0 … q_L
	P    []uint64 // special moduli of the hybrid keyswitch
	Dnum int      // number of digit groups
}

// N returns the ring degree.
func (p Parameters) N() int { return 1 << p.LogN }

// Alpha returns the number of moduli per digit group, ceil((L+1)/dnum).
func (p Parameters) Alpha() int { return (len(p.Q) + p.Dnum - 1) / p.Dnum }

// ModDownFunc divides a coefficient-domain accumulator over Q·P (its Q half
// aQ at levels 0..level, its P half aP) by P, writing the result over Q
// into out.
type ModDownFunc func(level int, aQ, aP, out *ring.Poly)

// Context holds the rings, converters and pools of one parameter set.
type Context struct {
	Params Parameters
	RQ, RP *ring.Ring
	Ext    *ring.Extender

	// Dec holds one dual converter per digit group, from the group's moduli
	// to Q and to P: the digit-batched ModUp the fused keyswitch runs on,
	// sharing the step-1 scaling between the two targets.
	Dec *ring.Decomposer

	// PModQ[i] = P mod q_i: the factor that lifts a Q-only term into a
	// ModDown input, so that the division by P leaves it exact.
	PModQ []uint64

	modDown ModDownFunc
	decPool sync.Pool // recycles Decomposition shells
}

// NewContext instantiates the rings and keyswitch tables for params, which
// the scheme has already validated. modDown is the scheme's division by P;
// nil selects the plain ring.Extender.ModDown.
func NewContext(params Parameters, modDown ModDownFunc) (*Context, error) {
	rq, err := ring.NewRing(params.N(), params.Q)
	if err != nil {
		return nil, err
	}
	rp, err := ring.NewRing(params.N(), params.P)
	if err != nil {
		return nil, err
	}
	c := &Context{Params: params, RQ: rq, RP: rp, Ext: ring.NewExtender(rq, rp), modDown: modDown}
	if c.modDown == nil {
		c.modDown = c.Ext.ModDown
	}
	alpha := params.Alpha()
	var duals []*ring.DualConverter
	for lo := 0; lo < len(params.Q); lo += alpha {
		src := params.Q[lo:min(lo+alpha, len(params.Q))]
		toQ := ring.NewBasisConverter(src, params.Q)
		toP := ring.NewBasisConverter(src, params.P)
		// Digit conversions ride the main ring's scheduler so SetWorkers
		// reaches the fused keyswitch's Bconv tiles too.
		toQ.BindScheduler(rq)
		toP.BindScheduler(rq)
		dc, err := ring.NewDualConverter(toQ, toP, lo)
		if err != nil {
			return nil, err
		}
		duals = append(duals, dc)
	}
	c.Dec = ring.NewDecomposer(alpha, duals)
	pProd := big.NewInt(1)
	for _, p := range params.P {
		pProd.Mul(pProd, new(big.Int).SetUint64(p))
	}
	c.PModQ = make([]uint64, len(params.Q))
	for i, q := range params.Q {
		c.PModQ[i] = new(big.Int).Mod(pProd, new(big.Int).SetUint64(q)).Uint64()
	}
	return c, nil
}

// ModDown divides an accumulator over Q·P by P with the scheme's ModDown.
func (c *Context) ModDown(level int, aQ, aP, out *ring.Poly) { c.modDown(level, aQ, aP, out) }

// SetWorkers fans the worker count out to every ring the context owns (RQ,
// RP) — and with them the bound converters — so one call configures the
// whole kernel suite an evaluation touches. 1 (the default) disables
// parallelism. Safe to call concurrently with running evaluations; the
// setting applies to subsequently submitted kernels.
func (c *Context) SetWorkers(n int) {
	c.RQ.SetWorkers(n)
	c.RP.SetWorkers(n)
}

// Workers reports the configured worker count (minimum 1).
func (c *Context) Workers() int { return c.RQ.Workers() }

// Close tears down the resident worker pools of the context's rings (see
// ring.Ring.Close); the context remains usable, falling back to serial
// kernels until another parallel call respawns workers.
func (c *Context) Close() {
	c.RQ.Close()
	c.RP.Close()
}
