// Package lazybounds exercises the lazy-bounds interval rule: the three
// defect classes (lazy value into a canonical call site, missing
// normalization before store, undeclared non-canonical contracts) next to
// the clean shapes the rule must accept (butterfly ladders, early-reduce
// passes), plus the annotation-grammar findings (stale entries, malformed
// domains, floating directives, unprovable contracts).
package lazybounds

// ---------------------------------------------------------------------------
// Vocabulary stubs. The rule dispatches on call names, so these local stands
// stand in for modmath/ring; the table-pinned contracts are hard-coded and
// the bodies are never analyzed.

// MulModShoupLazy mirrors the pinned modmath contract.
//
//alchemist:domain a:[0,4q) w:[0,q) q:modulus ret:[0,2q)
func MulModShoupLazy(a, w, wShoup, q uint64) uint64 { return a*w - wShoup*q }

func condSub(x, q uint64) uint64 {
	if x >= q {
		x -= q
	}
	return x
}

func condSubMask(x, q uint64) uint64 {
	d := x - q
	return d + (q & uint64(int64(d)>>63))
}

func reduceOnce(x, twoQ, q uint64) uint64 { return condSub(condSub(x, twoQ), q) }

func AddMod(a, b, q uint64) uint64 {
	s := a + b
	if s >= q {
		s -= q
	}
	return s
}

// NTTLazy stands in for the transform entry points: canonical input required.
func NTTLazy(p []uint64) {}

// ---------------------------------------------------------------------------
// Defect class (a): lazy values into call sites that declare tighter domains.

// canonicalOnly accepts only fully reduced residues.
//
//alchemist:domain x:[0,q) q:modulus ret:[0,q)
func canonicalOnly(x, q uint64) uint64 { return x }

// BadCallArg feeds a lazy [0,2q) product into a canonical-only callee.
//
//alchemist:domain p:[0,q) w:[0,q) q:modulus
func BadCallArg(p []uint64, w, ws, q uint64) {
	for j := range p {
		v := MulModShoupLazy(p[j], w, ws, q)
		p[j] = canonicalOnly(v, q)
	}
}

// BadTransformInput hands a lazy-domain slice to the canonical-input NTT.
//
//alchemist:domain p:[0,2q)
func BadTransformInput(p []uint64) {
	NTTLazy(p)
}

// ---------------------------------------------------------------------------
// Defect class (b): missing normalization before a canonical-domain store.

// BadStore writes a lazy product into a canonical-domain slice.
//
//alchemist:domain p:[0,q) w:[0,q) q:modulus
func BadStore(p []uint64, w, ws, q uint64) {
	for j := range p {
		p[j] = MulModShoupLazy(p[j], w, ws, q)
	}
}

// WrongModulusSub subtracts something that is not a known multiple of the
// live modulus, so the conditional subtraction proves nothing.
//
//alchemist:domain p:[0,q) w:[0,q) q:modulus
func WrongModulusSub(p []uint64, w, ws, q, r uint64) {
	for j := range p {
		v := MulModShoupLazy(p[j], w, ws, q)
		p[j] = condSub(v, r)
	}
}

// BadRegionLeak widens p in place and exits without restoring the contract.
//
//alchemist:domain p:[0,q) w:[0,q) q:modulus
func BadRegionLeak(p []uint64, w, ws, q uint64) {
	twoQ := 2 * q
	//alchemist:domain p:[0,4q)
	for j := range p {
		u := condSub(p[j], twoQ)
		v := MulModShoupLazy(p[j], w, ws, q)
		p[j] = u + v
	}
}

// ---------------------------------------------------------------------------
// Defect class (c): undeclared non-canonical contracts (strict packages).

// LazyProduct returns a [0,2q) value without declaring it.
func LazyProduct(a, w, ws, q uint64) uint64 {
	x := condSub(a, q)
	return MulModShoupLazy(x, w, ws, q)
}

// ---------------------------------------------------------------------------
// Annotation-grammar findings.

// StaleParam names a parameter that does not exist.
//
//alchemist:domain zz:[0,q)
func StaleParam(p []uint64) {}

// Malformed declares a domain the grammar does not know.
//
//alchemist:domain p:[0,3x)
func Malformed(p []uint64) {}

// BadRetContract declares a return domain the body cannot satisfy.
//
//alchemist:domain x:[0,4q) w:[0,q) q:modulus ret:[0,q)
func BadRetContract(x, w, ws, q uint64) uint64 {
	return MulModShoupLazy(x, w, ws, q)
}

//alchemist:domain p:[0,q)

// ---------------------------------------------------------------------------
// Clean shapes: zero findings expected below this line.

// CleanButterfly is the Harvey ladder: widen to [0,4q) in place, then a
// final early-reduce pass restores the canonical contract.
//
//alchemist:domain p:[0,q) w:[0,q) q:modulus
func CleanButterfly(p []uint64, w, ws, q uint64) {
	twoQ := 2 * q
	//alchemist:domain p:[0,4q)
	for j := 0; j+1 < len(p); j += 2 {
		u := condSub(p[j], twoQ)
		v := MulModShoupLazy(p[j+1], w, ws, q)
		p[j] = u + v
		p[j+1] = u + twoQ - v
	}
	//alchemist:domain p:[0,q)
	for j := range p {
		p[j] = reduceOnce(p[j], twoQ, q)
	}
}

// CleanMasked uses the borrow-mask form of the conditional subtraction.
//
//alchemist:domain p:[0,q) w:[0,q) q:modulus
func CleanMasked(p []uint64, w, ws, q uint64) {
	//alchemist:domain p:[0,2q)
	for j := range p {
		p[j] = condSubMask(MulModShoupLazy(p[j], w, ws, q), q)
	}
	//alchemist:domain p:[0,q)
	for j := range p {
		p[j] = condSub(p[j], q)
	}
}

// CleanEager stays in the canonical domain throughout.
//
//alchemist:domain p:[0,q) q:modulus
func CleanEager(p []uint64, q uint64) {
	for j := range p {
		p[j] = AddMod(p[j], p[j], q)
	}
}
