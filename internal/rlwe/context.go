// Package rlwe is the RNS RLWE core that CKKS, BGV and BFV share: the Q and
// P rings with their digit converters, the key types and the gadget key
// generation, the ciphertext with its wire codec, encryption, decryption,
// the key-free ciphertext arithmetic, the digit-batched decomposition, the
// fused lazy keyswitch, the hoisted Galois apply and the NTT-domain tensor
// with relinearization. To the paper's accelerator the schemes are one
// workload (NTT, Bconv, DecompPolyMult); this package is that workload in
// software, written once.
//
// The plaintext modulus t is the core's one scheme-dependent value (1 for
// CKKS): it scales every key and encryption error, and both divisions by a
// dropped modulus — ModDown's P and the rescale's q_l — run the same
// ring.Extender kernels for every scheme, keeping the plaintext modulo t.
// The scheme also supplies its secret and error samplers to key generation
// and encryption. Everything that depends on the message encoding
// (parameters, encoders, scale and rescaling policy) stays in the scheme
// packages.
package rlwe

import (
	"fmt"
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
	T    uint64   // plaintext modulus the errors and divisions keep; 1 for CKKS
}

// N returns the ring degree.
func (p Parameters) N() int { return 1 << p.LogN }

// Alpha returns the number of moduli per digit group, ceil((L+1)/dnum).
func (p Parameters) Alpha() int { return (len(p.Q) + p.Dnum - 1) / p.Dnum }

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

	// gadget[g] holds W_g mod each q_i, the gadget factor of digit group g
	// (see gadgetFactor).
	gadget [][]uint64

	decPool sync.Pool // recycles Decomposition shells
}

// NewContext instantiates the rings and keyswitch tables for params, which
// the scheme has already validated. It rejects a plaintext modulus t that
// is 0 or not invertible modulo every q_i and p_j.
func NewContext(params Parameters) (*Context, error) {
	rq, err := ring.NewRing(params.N(), params.Q)
	if err != nil {
		return nil, err
	}
	rp, err := ring.NewRing(params.N(), params.P)
	if err != nil {
		return nil, err
	}
	for _, s := range append(append([]*ring.SubRing(nil), rq.SubRings...), rp.SubRings...) {
		if s.ReduceWord(params.T) == 0 {
			return nil, fmt.Errorf("rlwe: plaintext modulus t=%d is not invertible modulo %d", params.T, s.Q)
		}
	}
	c := &Context{Params: params, RQ: rq, RP: rp, Ext: ring.NewExtender(rq, rp, params.T)}
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
	for g := range c.Dec.Groups {
		c.gadget = append(c.gadget, c.gadgetFactor(g))
	}
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
