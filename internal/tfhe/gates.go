package tfhe

// Boolean gates with the standard TFHE gate-bootstrapping recipe: a small
// linear combination of the inputs followed by a bootstrap that refreshes
// noise and binarizes the phase.

import "context"

// gate routes every boolean gate through the scheme's shared bootstrapper,
// so all gates reuse one pinned gate test vector and one warmed scratch
// arena instead of rebuilding both per call.
func (s *Scheme) gate(lin *LweSample) (*LweSample, error) {
	b, err := s.sharedBootstrapper()
	if err != nil {
		return nil, err
	}
	return b.Run(context.Background(), lin)
}

// constSample returns the trivial (noiseless) sample (0, mu).
func (s *Scheme) constSample(mu Torus) *LweSample {
	c := NewLweSample(s.Params.NLwe)
	c.B = mu
	return c
}

// NAND returns x ⊼ y.
func (s *Scheme) NAND(x, y *LweSample) (*LweSample, error) {
	lin := s.constSample(TorusFromDouble(0.125))
	lin.SubTo(x)
	lin.SubTo(y)
	return s.gate(lin)
}

// AND returns x ∧ y.
func (s *Scheme) AND(x, y *LweSample) (*LweSample, error) {
	lin := s.constSample(TorusFromDouble(-0.125))
	lin.AddTo(x)
	lin.AddTo(y)
	return s.gate(lin)
}

// OR returns x ∨ y.
func (s *Scheme) OR(x, y *LweSample) (*LweSample, error) {
	lin := s.constSample(TorusFromDouble(0.125))
	lin.AddTo(x)
	lin.AddTo(y)
	return s.gate(lin)
}

// NOR returns ¬(x ∨ y).
func (s *Scheme) NOR(x, y *LweSample) (*LweSample, error) {
	lin := s.constSample(TorusFromDouble(-0.125))
	lin.SubTo(x)
	lin.SubTo(y)
	return s.gate(lin)
}

// XOR returns x ⊕ y.
func (s *Scheme) XOR(x, y *LweSample) (*LweSample, error) {
	lin := s.constSample(TorusFromDouble(0.25))
	two := x.Copy()
	two.MulScalarTo(2)
	lin.AddTo(two)
	two = y.Copy()
	two.MulScalarTo(2)
	lin.AddTo(two)
	return s.gate(lin)
}

// XNOR returns ¬(x ⊕ y).
func (s *Scheme) XNOR(x, y *LweSample) (*LweSample, error) {
	lin := s.constSample(TorusFromDouble(-0.25))
	two := x.Copy()
	two.MulScalarTo(2)
	lin.SubTo(two)
	two = y.Copy()
	two.MulScalarTo(2)
	lin.SubTo(two)
	return s.gate(lin)
}

// NOT returns ¬x without bootstrapping.
func (s *Scheme) NOT(x *LweSample) *LweSample {
	out := x.Copy()
	out.Neg()
	return out
}

// MUX returns c ? x : y using three bootstraps.
func (s *Scheme) MUX(c, x, y *LweSample) (*LweSample, error) {
	cx, err := s.AND(c, x)
	if err != nil {
		return nil, err
	}
	ncy, err := s.AND(s.NOT(c), y)
	if err != nil {
		return nil, err
	}
	return s.OR(cx, ncy)
}
