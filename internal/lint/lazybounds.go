package lint

// lazy-bounds: a forward interval-domain abstract interpretation over the CFG
// proving the lazy-reduction discipline of the modmath/ring kernels.
//
// Every hot kernel is lazy: MulModShoupLazy outputs live in [0,2q) and
// Harvey butterflies accumulate into [0,4q). Those contracts used to live
// only in comments; this rule turns them into checked invariants. The
// 128-bit keyswitch sums (ring.KSAccumulate) hold at most ksChunk = 4
// products of residues below q < 2^62 (NewBarrett's bound) before each
// Barrett fold, so their m·q ≤ 2^64 headroom is a constant, not a dataflow
// fact; FuzzBarrettReduceWide and the fused-vs-eager keyswitch tests pin it.
//
// The abstract domain tracks each uint64 value as a symbolic interval in
// multiples of the live modulus q:
//
//	residue(b, s)  —  s·q ≤ v < b·q   (canonical values are residue(1, 0))
//	modMul(k)      —  v == k·q exactly (q itself, twoQ, ...)
//	top            —  nothing known
//
// plus a provenance bit: a residue is "known" when its bound derives from the
// lazy vocabulary (MulModShoupLazy outputs, twoQ-biased arithmetic, annotated
// loads) and merely "assumed" when it derives from the canonical-domain
// convention (a load from an unannotated slice). Checks only fire on known
// values — the rule never convicts on an assumption — but assumed values
// still participate in arithmetic so that q-biased expressions such as
// src[k]+q-c[k] get their true [0,2q) bound.
//
// Slices carry textual region ceilings: a function-level
//
//	//alchemist:domain p:[0,q)
//
// declares the entry/exit contract of parameter p, and an in-body directive
// changes the active ceiling from its line onward (the NTTLazy main loop runs
// under p:[0,4q), the final normalization pass restores p:[0,q)). Stores are
// checked against the active ceiling at the store line; loads see the running
// maximum of all ceilings up to the load line, so deleting a final-pass
// condSub is caught even though the store itself then sits in a [0,q) region.
// At every return the active ceiling must have been restored to the declared
// entry contract.
//
// Reported defect classes:
//
//	(a) a lazy value flowing into a call site whose declared domain it
//	    cannot satisfy (including a wrong modulus multiple: condSub(x, q)
//	    where the [0,4q) input needs condSub(x, twoQ));
//	(b) a missing normalization before a store to a canonical-domain output
//	    slice, or an in-place region not restored to its contract by return;
//	(c) unannotated exported functions in internal/ring + internal/modmath
//	    that consume or produce non-canonical domains, and stale or
//	    unprovable //alchemist:domain annotations.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// NormalizeSite is one normalization call (condSub/condSubMask/reduceOnce)
// whose narrowing the rule actually used to prove a bound. The mutation
// self-test splices each site out (replacing the call with its first
// argument) and asserts the rule catches every mutant.
type NormalizeSite struct {
	File           string    // file the call sits in
	Pos, End       token.Pos // extent of the whole call expression
	ArgPos, ArgEnd token.Pos // extent of the value argument (the splice text)
	Kind           string    // condSub | condSubMask | reduceOnce
	Fn             string    // enclosing function name
}

// LazyBounds is the lazy-reduction bounds rule.
type LazyBounds struct {
	// Scope limits the rule to packages whose import path contains one of
	// these substrings.
	Scope []string
	// Strict marks the kernel packages where unannotated slice parameters
	// default to the canonical [0,q) contract and non-canonical returns
	// must be declared (defect class c).
	Strict []string
	// onNormalize, when set, observes every proven normalization site.
	// Used by the mutation self-test.
	onNormalize func(NormalizeSite)
}

// NewLazyBounds returns the rule with its default scope: the arithmetic
// kernels strictly, the scheme packages for annotation checking. The module
// argument is unused (scopes are path substrings) but keeps the constructor
// signature uniform with the other rules.
func NewLazyBounds(string) *LazyBounds {
	return &LazyBounds{
		Scope:  []string{"internal/modmath", "internal/ring", "internal/rlwe", "internal/ckks", "internal/bgv", "internal/tfhe"},
		Strict: []string{"internal/modmath", "internal/ring"},
	}
}

func (lb *LazyBounds) Name() string { return "lazy-bounds" }

func (lb *LazyBounds) Doc() string {
	return "lazy-reduction bounds: interval analysis proves every [0,kq) value is normalized before it escapes"
}

const lazyBoundsHint = "see DESIGN.md §5h: declare domains with //alchemist:domain <param|ret>:[0,kq) and normalize with condSub/reduceOnce"

// ---------------------------------------------------------------------------
// Abstract values

const (
	avTop = iota
	avResidue
	avModMul
)

// maxBound saturates interval bounds so the lattice stays finite; any bound
// that would exceed it collapses to top.
const maxBound = 64

type absVal struct {
	kind  int
	bound int  // residue: v < bound·q ; modMul: v == bound·q
	bias  int  // residue: v ≥ bias·q
	known bool // derived from the lazy vocabulary, not assumed
}

func topVal() absVal            { return absVal{kind: avTop} }
func modMulVal(k int) absVal    { return absVal{kind: avModMul, bound: k, known: true} }
func knownResidue(b int) absVal { return absVal{kind: avResidue, bound: b, known: true} }
func assumedResidue(b int) absVal {
	return absVal{kind: avResidue, bound: b}
}

func (v absVal) isTop() bool { return v.kind == avTop }

// asResidue widens a modMul to the enclosing residue interval.
func (v absVal) asResidue() absVal {
	if v.kind == avModMul {
		return absVal{kind: avResidue, bound: v.bound + 1, bias: v.bound, known: true}
	}
	return v
}

func satBound(b int) (int, bool) {
	if b > maxBound {
		return 0, false
	}
	return b, true
}

// joinVals is the interval hull. known joins as OR: a value that is lazy on
// one path must be treated as lazy after the merge.
func joinVals(a, b absVal) absVal {
	if a == b {
		return a
	}
	if a.isTop() || b.isTop() {
		return topVal()
	}
	if a.kind == avModMul && b.kind == avModMul && a.bound == b.bound {
		return a
	}
	ar, br := a.asResidue(), b.asResidue()
	out := absVal{kind: avResidue, bound: ar.bound, bias: ar.bias, known: ar.known || br.known}
	if br.bound > out.bound {
		out.bound = br.bound
	}
	if br.bias < out.bias {
		out.bias = br.bias
	}
	return out
}

// addVals: [s1,b1) + [s2,b2) = [s1+s2, b1+b2). Adding the modulus itself is
// a vocabulary act, so modMul involvement makes the result known; adding two
// residues is only known when both operands are.
func addVals(a, b absVal) absVal {
	if a.isTop() || b.isTop() {
		return topVal()
	}
	if a.kind == avModMul && b.kind == avModMul {
		if k, ok := satBound(a.bound + b.bound); ok {
			return modMulVal(k)
		}
		return topVal()
	}
	// residue + exact k·q shifts both ends by k: [s,b) + kq = [s+k, b+k).
	// Routing the modMul through asResidue would widen exact 2q to [2q,3q)
	// and inflate the butterfly sum u+twoQ to [0,5q) instead of [0,4q).
	if a.kind == avModMul || b.kind == avModMul {
		r, m := a, b
		if a.kind == avModMul {
			r, m = b, a
		}
		bound, ok := satBound(r.bound + m.bound)
		if !ok {
			return topVal()
		}
		return absVal{kind: avResidue, bound: bound, bias: r.bias + m.bound, known: true}
	}
	bound, ok := satBound(a.bound + b.bound)
	if !ok {
		return topVal()
	}
	return absVal{kind: avResidue, bound: bound, bias: a.bias + b.bias, known: a.known && b.known}
}

// subVals: a - b is only sound (no wraparound) when a's lower bound covers
// b's upper bound; otherwise top. This is exactly the twoQ-biased butterfly
// shape u + twoQ - v: the bias contributed by twoQ absorbs v's bound.
func subVals(a, b absVal) absVal {
	if a.isTop() || b.isTop() {
		return topVal()
	}
	if a.kind == avModMul && b.kind == avModMul {
		if a.bound >= b.bound {
			return modMulVal(a.bound - b.bound)
		}
		return topVal()
	}
	// residue - exact k·q shifts both ends down by k, sound when the lower
	// end covers it: [s,b) - kq = [s-k, b-k) for s ≥ k.
	if b.kind == avModMul {
		if a.kind == avModMul {
			// handled above
			return topVal()
		}
		if a.bias < b.bound {
			return topVal()
		}
		return absVal{kind: avResidue, bound: a.bound - b.bound, bias: a.bias - b.bound, known: true}
	}
	// exact k·q - residue [s,b): sound when k covers b; the result can equal
	// (k-s)·q exactly (at x = s·q), so the half-open bound widens by one.
	if a.kind == avModMul {
		if a.bound < b.bound {
			return topVal()
		}
		bound, ok := satBound(a.bound - b.bias + 1)
		if !ok {
			return topVal()
		}
		return absVal{kind: avResidue, bound: bound, bias: a.bound - b.bound, known: true}
	}
	if a.bias < b.bound {
		return topVal()
	}
	return absVal{kind: avResidue, bound: a.bound - b.bias, bias: a.bias - b.bound, known: a.known && b.known}
}

// mulConst scales an interval by a non-negative integer constant.
func mulConst(v absVal, c int) absVal {
	if v.isTop() || c < 0 {
		return topVal()
	}
	if c == 0 {
		return topVal() // zero is a fine residue but carries no q-relation
	}
	if v.kind == avModMul {
		if k, ok := satBound(v.bound * c); ok {
			return modMulVal(k)
		}
		return topVal()
	}
	bound, ok := satBound(v.bound * c)
	if !ok {
		return topVal()
	}
	return absVal{kind: avResidue, bound: bound, bias: v.bias * c, known: v.known}
}

// condSubVal applies one conditional subtraction of k·q: the result keeps
// the input bound when it is already ≤ k, otherwise it narrows to
// max(k, bound-k). narrowed reports whether the call actually tightened a
// known bound (those are the sites the mutation test protects).
func condSubVal(in absVal, k int) (out absVal, narrowed bool) {
	r := in.asResidue()
	if in.isTop() || r.kind != avResidue {
		return topVal(), false
	}
	nb := r.bound
	if nb > k {
		nb = nb - k
		if nb < k {
			nb = k
		}
	}
	out = absVal{kind: avResidue, bound: nb, bias: 0, known: r.known}
	return out, r.known && nb < r.bound
}

// ---------------------------------------------------------------------------
// Abstract state

type lbState struct {
	vals map[types.Object]absVal
}

func newLBState() *lbState {
	return &lbState{vals: map[types.Object]absVal{}}
}

func (s *lbState) clone() *lbState {
	n := &lbState{vals: make(map[types.Object]absVal, len(s.vals))}
	for k, v := range s.vals {
		n.vals[k] = v
	}
	return n
}

func (s *lbState) set(obj types.Object, v absVal) {
	if obj == nil {
		return
	}
	if v.isTop() {
		delete(s.vals, obj)
		return
	}
	s.vals[obj] = v
}

func (s *lbState) get(obj types.Object) absVal {
	if obj == nil {
		return topVal()
	}
	if v, ok := s.vals[obj]; ok {
		return v
	}
	return topVal()
}

// join merges o into s, reporting whether s changed. Missing vals are top
// (so a key present in only one input drops out).
func (s *lbState) join(o *lbState) bool {
	changed := false
	for k, v := range s.vals {
		ov, ok := o.vals[k]
		if !ok {
			delete(s.vals, k)
			changed = true
			continue
		}
		j := joinVals(v, ov)
		if j != v {
			if j.isTop() {
				delete(s.vals, k)
			} else {
				s.vals[k] = j
			}
			changed = true
		}
	}
	return changed
}

// ---------------------------------------------------------------------------
// Domain annotations

var (
	domainRE   = regexp.MustCompile(`^//\s*alchemist:domain\s+(.+?)\s*$`)
	domEntryRE = regexp.MustCompile(`^([A-Za-z_][A-Za-z0-9_]*):(\S+)$`)
	domBoundRE = regexp.MustCompile(`^\[0,(\d*)q\)$`)
)

const (
	domAny = iota
	domResidue
	domModulus
)

type domSpec struct {
	kind int
	k    int // domResidue: bound in multiples of q
}

func parseDom(s string) (domSpec, bool) {
	switch s {
	case "any":
		return domSpec{kind: domAny}, true
	case "modulus":
		return domSpec{kind: domModulus}, true
	}
	if m := domBoundRE.FindStringSubmatch(s); m != nil {
		k := 1
		if m[1] != "" {
			n, err := strconv.Atoi(m[1])
			if err != nil || n < 1 || n > maxBound {
				return domSpec{}, false
			}
			k = n
		}
		return domSpec{kind: domResidue, k: k}, true
	}
	return domSpec{}, false
}

func (d domSpec) String() string {
	switch d.kind {
	case domAny:
		return "any"
	case domModulus:
		return "modulus"
	default:
		if d.k == 1 {
			return "[0,q)"
		}
		return fmt.Sprintf("[0,%dq)", d.k)
	}
}

// domainDirective is one parsed //alchemist:domain comment.
type domainDirective struct {
	pos     token.Pos
	entries []domEntry
	raw     string
}

type domEntry struct {
	name string
	dom  domSpec
	ok   bool // dom parsed
	raw  string
}

func parseDomainComment(c *ast.Comment) (domainDirective, bool) {
	m := domainRE.FindStringSubmatch(c.Text)
	if m == nil {
		return domainDirective{}, false
	}
	d := domainDirective{pos: c.Pos(), raw: m[1]}
	for _, field := range strings.Fields(m[1]) {
		e := domEntry{raw: field}
		if em := domEntryRE.FindStringSubmatch(field); em != nil {
			e.name = em[1]
			e.dom, e.ok = parseDom(em[2])
		}
		d.entries = append(d.entries, e)
	}
	return d, true
}

// regionMark is one in-body ceiling change for a slice root: from pos onward
// the root's active ceiling is k.
type regionMark struct {
	pos token.Pos
	k   int
}

// rootInfo is the domain contract of one slice-like parameter.
type rootInfo struct {
	name      string
	annotated bool // declared via //alchemist:domain (entry or region)
	entryK    int  // entry/exit ceiling; 0 = no ceiling (any)
	marks     []regionMark
}

// activeCeiling is the declared ceiling in force at pos (the entry contract
// overridden by the latest region mark at or before pos). 0 means none.
func (r *rootInfo) activeCeiling(pos token.Pos) int {
	k := r.entryK
	for _, m := range r.marks {
		if m.pos <= pos {
			k = m.k
		}
	}
	return k
}

// loadCeiling is the bound a load at pos must conservatively assume: the
// running maximum of every ceiling declared up to that line. A store under a
// later, tighter region does not erase what earlier regions may have left in
// unvisited slots.
func (r *rootInfo) loadCeiling(pos token.Pos) int {
	k := r.entryK
	for _, m := range r.marks {
		if m.pos <= pos && m.k > k {
			k = m.k
		}
	}
	return k
}

// ---------------------------------------------------------------------------
// Intrinsic transfer-function table

// tableSkip names the primitives whose contracts this rule hard-codes. Their
// bodies are deliberately not analyzed: the contracts are pinned by the
// modmath fuzzers (e.g. FuzzMulModShoupLazyDomain), and re-deriving a bound
// like MulModShoupLazy's [0,2q) from its bit-twiddling body is out of scope
// for an interval domain.
var tableSkip = map[string]bool{
	"AddMod": true, "SubMod": true, "NegMod": true, "MulMod": true,
	"PowMod": true, "InvMod": true, "ReduceSigned": true, "ReduceWord": true,
	"Reduce": true, "MulModShoup": true, "MulModShoupLazy": true,
	"ShoupPrecomp": true, "condSub": true, "condSubMask": true,
	"reduceOnce": true,
}

// tableExpected pins the annotation text required on table functions whose
// declared contract is non-canonical; a drifting annotation is a finding.
var tableExpected = map[string]map[string]string{
	"MulModShoupLazy": {"a": "[0,4q)", "ret": "[0,2q)"},
}

// modulusFields are struct fields / indexed tables that hold live moduli.
var modulusFields = map[string]bool{"Q": true, "Moduli": true, "Src": true, "Dst": true}

// vocabNames is the quick-reject trigger set: a function whose body mentions
// none of these identifiers and carries no domain annotation cannot produce
// a known lazy value, so its analysis is skipped.
var vocabNames = map[string]bool{
	"MulModShoupLazy": true, "MulModShoup": true, "condSub": true,
	"condSubMask": true, "reduceOnce": true, "AddMod": true, "SubMod": true,
	"NegMod": true, "MulMod": true, "ReduceWord": true, "Reduce": true,
	"ReduceSigned": true, "ShoupPrecomp": true, "PowMod": true, "InvMod": true,
	"NTTLazy": true, "INTTLazy": true, "NTT": true, "INTT": true,
	"Q": true, "Moduli": true,
}

// ---------------------------------------------------------------------------
// Rule driver

func (lb *LazyBounds) Check(p *Package, report func(Finding)) {
	if !matchAny(p.PkgPath, lb.Scope) {
		return
	}
	strict := matchAny(p.PkgPath, lb.Strict)

	// Collect same-package function contracts first so call-site checks can
	// see annotations on functions defined later in the package.
	contracts := map[string]map[string]domSpec{}
	type fnDirectives struct {
		fn   *ast.FuncDecl
		doc  []domainDirective // attached to the doc comment
		body []domainDirective // region directives inside the body
	}
	var fns []*fnDirectives
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				fns = append(fns, &fnDirectives{fn: fd})
			}
		}
	}
	flagDirective := func(pos token.Pos, format string, args ...any) {
		if p.Allowed(lb.Name(), pos) {
			return
		}
		report(Finding{
			Pos:  p.Fset.Position(pos),
			Rule: lb.Name(),
			Msg:  fmt.Sprintf(format, args...),
			Hint: lazyBoundsHint,
		})
	}
	for _, f := range p.Files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				d, ok := parseDomainComment(c)
				if !ok {
					continue
				}
				attached := false
				for _, e := range fns {
					fd := e.fn
					if fd.Doc != nil && d.pos >= fd.Doc.Pos() && d.pos <= fd.Doc.End() {
						e.doc = append(e.doc, d)
						attached = true
						break
					}
					if fd.Body != nil && d.pos >= fd.Body.Pos() && d.pos <= fd.Body.End() {
						e.body = append(e.body, d)
						attached = true
						break
					}
				}
				if !attached {
					flagDirective(d.pos, "domain directive %q attaches to no function (must sit in a doc comment or a function body)", d.raw)
				}
			}
		}
	}

	// Validate and register function-level contracts.
	for _, e := range fns {
		fd := e.fn
		params := paramObjects(p, fd)
		var contract map[string]domSpec
		for _, d := range e.doc {
			for _, ent := range d.entries {
				if ent.name == "" || !ent.ok {
					flagDirective(d.pos, "func %s: malformed domain entry %q (want name:[0,kq) | name:any | name:modulus)", fd.Name.Name, ent.raw)
					continue
				}
				if ent.name != "ret" {
					if _, ok := params[ent.name]; !ok {
						flagDirective(d.pos, "func %s: domain entry %q names no parameter", fd.Name.Name, ent.raw)
						continue
					}
				}
				if contract == nil {
					contract = map[string]domSpec{}
				}
				contract[ent.name] = ent.dom
			}
		}
		if contract != nil {
			contracts[fd.Name.Name] = contract
		}
		// Drift check against the hard-coded table.
		if want, ok := tableExpected[fd.Name.Name]; ok {
			for name, dom := range want {
				got, has := contract[name]
				if !has {
					flagDirective(fd.Name.Pos(), "func %s: missing required domain annotation %s:%s (non-canonical contract must be declared)", fd.Name.Name, name, dom)
				} else if got.String() != dom {
					flagDirective(fd.Name.Pos(), "func %s: domain annotation %s:%s contradicts the pinned contract %s:%s", fd.Name.Name, name, got, name, dom)
				}
			}
		}
	}

	for _, e := range fns {
		fd := e.fn
		if fd.Body == nil {
			continue
		}
		if tableSkip[fd.Name.Name] {
			continue
		}
		fa := &lbFunc{
			rule:      lb,
			pkg:       p,
			fn:        fd,
			strict:    strict,
			contracts: contracts,
			reported:  map[string]bool{},
			sites:     map[token.Pos]bool{},
		}
		fa.setup(e.doc, e.body, flagDirective)
		if fa.skip {
			continue
		}
		fa.run(report)
	}
}

// paramObjects maps parameter names (including the receiver) to their
// types.Object for one function declaration.
func paramObjects(p *Package, fd *ast.FuncDecl) map[string]types.Object {
	out := map[string]types.Object{}
	collect := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if obj := p.Info.Defs[name]; obj != nil {
					out[name.Name] = obj
				}
			}
		}
	}
	collect(fd.Recv)
	collect(fd.Type.Params)
	return out
}

func isUint64Word(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint64
}

// ---------------------------------------------------------------------------
// Per-function analysis

type lbFunc struct {
	rule      *LazyBounds
	pkg       *Package
	fn        *ast.FuncDecl
	strict    bool
	contracts map[string]map[string]domSpec

	cfg     *CFG
	states  map[*CFGNode]*lbState
	entry   *lbState
	roots   map[types.Object]*rootInfo
	aliases map[types.Object]types.Object
	retDom  *domSpec
	skip    bool

	reported map[string]bool
	sites    map[token.Pos]bool
}

// residueCarrier reports whether a parameter type holds modular residues a
// ceiling can apply to: uint64 slices at any nesting depth, or Poly-shaped
// aggregates.
func residueCarrier(t types.Type) bool {
	if strings.Contains(t.String(), "Poly") {
		return true
	}
	u := t.Underlying()
	for {
		sl, ok := u.(*types.Slice)
		if !ok {
			return false
		}
		if b, ok := sl.Elem().Underlying().(*types.Basic); ok {
			return b.Kind() == types.Uint64
		}
		u = sl.Elem().Underlying()
	}
}

// setup classifies parameters into scalar entry seeds and slice roots,
// applies the function's contract and region directives, builds the
// flow-insensitive alias map, and decides the quick-reject.
func (fa *lbFunc) setup(doc, body []domainDirective, flagDirective func(token.Pos, string, ...any)) {
	fd := fa.fn
	params := paramObjects(fa.pkg, fd)
	contract := fa.contracts[fd.Name.Name]
	fa.roots = map[types.Object]*rootInfo{}
	fa.aliases = map[types.Object]types.Object{}
	fa.entry = newLBState()

	if contract != nil {
		if ret, ok := contract["ret"]; ok {
			r := ret
			fa.retDom = &r
		}
	}

	for name, obj := range params {
		dom, declared := domSpec{}, false
		if contract != nil {
			dom, declared = contract[name]
		}
		if isUint64Word(obj.Type()) {
			// Scalar seed.
			if declared {
				switch dom.kind {
				case domModulus:
					fa.entry.set(obj, modMulVal(1))
				case domResidue:
					fa.entry.set(obj, knownResidue(dom.k))
				}
			}
			continue
		}
		if !declared && !(fa.strict && residueCarrier(obj.Type())) {
			continue
		}
		r := &rootInfo{name: name}
		if declared {
			r.annotated = true
			switch dom.kind {
			case domResidue:
				r.entryK = dom.k
			case domModulus:
				flagDirective(fd.Name.Pos(), "func %s: parameter %q is not a scalar; modulus domain does not apply", fd.Name.Name, name)
			}
			// domAny: annotated with no ceiling.
		} else {
			r.entryK = 1 // strict packages: unannotated slices are canonical
		}
		fa.roots[obj] = r
	}

	// In-body region directives re-declare a root's ceiling from their line
	// onward.
	for _, d := range body {
		for _, ent := range d.entries {
			if ent.name == "" || !ent.ok {
				flagDirective(d.pos, "func %s: malformed domain entry %q (want name:[0,kq) | name:any)", fd.Name.Name, ent.raw)
				continue
			}
			if ent.name == "ret" || ent.dom.kind == domModulus {
				flagDirective(d.pos, "func %s: region directive %q must name a slice parameter with a [0,kq) or any domain", fd.Name.Name, ent.raw)
				continue
			}
			obj, ok := params[ent.name]
			if !ok {
				flagDirective(d.pos, "func %s: region directive %q names no parameter", fd.Name.Name, ent.raw)
				continue
			}
			r, ok := fa.roots[obj]
			if !ok {
				r = &rootInfo{name: ent.name}
				fa.roots[obj] = r
			}
			r.annotated = true
			k := 0
			if ent.dom.kind == domResidue {
				k = ent.dom.k
			}
			r.marks = append(r.marks, regionMark{pos: d.pos, k: k})
		}
	}
	for _, r := range fa.roots {
		sort.Slice(r.marks, func(i, j int) bool { return r.marks[i].pos < r.marks[j].pos })
	}

	// Flow-insensitive alias pre-pass: x0 := p[a:b:c] or dst := out.Coeffs[i]
	// make x0/dst stand for their base root. Conflicting rebinds poison the
	// alias; two rounds resolve alias-of-alias chains.
	if fd.Body != nil {
		for round := 0; round < 2; round++ {
			ast.Inspect(fd.Body, func(node ast.Node) bool {
				as, ok := node.(*ast.AssignStmt)
				if !ok || len(as.Lhs) != len(as.Rhs) {
					return true
				}
				for i, lhs := range as.Lhs {
					id, ok := unparen(lhs).(*ast.Ident)
					if !ok || isBlank(id) {
						continue
					}
					switch unparen(as.Rhs[i]).(type) {
					case *ast.SliceExpr, *ast.IndexExpr, *ast.Ident, *ast.SelectorExpr:
					default:
						continue
					}
					// Only slice-shaped bindings alias; scalar copies are
					// value flow, handled by the abstract state.
					if tv, ok := fa.pkg.Info.Types[as.Rhs[i]]; !ok || tv.Type == nil || isUint64Word(tv.Type) {
						continue
					}
					obj := lbObjOf(fa.pkg, id)
					if obj == nil || fa.roots[obj] != nil {
						continue
					}
					base := fa.baseObj(as.Rhs[i])
					if base == obj {
						continue
					}
					if target, chained := fa.aliases[base]; chained {
						base = target
					}
					if cur, seen := fa.aliases[obj]; seen && cur != base {
						fa.aliases[obj] = nil // conflicting rebind: poison
						continue
					}
					fa.aliases[obj] = base
				}
				return true
			})
		}
	}

	// Quick-reject: a body that never mentions the lazy vocabulary, a
	// modulus field, or an annotated same-package callee cannot produce a
	// known lazy value.
	fa.skip = true
	if fd.Body != nil {
		ast.Inspect(fd.Body, func(node ast.Node) bool {
			if !fa.skip {
				return false
			}
			if id, ok := node.(*ast.Ident); ok {
				if vocabNames[id.Name] || fa.contracts[id.Name] != nil {
					fa.skip = false
				}
			}
			return fa.skip
		})
	}
	for _, r := range fa.roots {
		if r.annotated {
			fa.skip = false
		}
	}
}

func (fa *lbFunc) run(report func(Finding)) {
	fd := fa.fn
	fa.cfg = BuildCFG(fd.Body)
	fa.states = map[*CFGNode]*lbState{}
	fa.states[fa.cfg.Entry] = fa.entry.clone()

	// Worklist fixpoint: propagate states forward until stable.
	work := []*CFGNode{fa.cfg.Entry}
	inWork := map[*CFGNode]bool{fa.cfg.Entry: true}
	for len(work) > 0 {
		n := work[0]
		work = work[1:]
		inWork[n] = false
		in, ok := fa.states[n]
		if !ok {
			continue
		}
		out := fa.transfer(n, in.clone(), nil)
		for _, succ := range n.Succs {
			cur, ok := fa.states[succ]
			if !ok {
				fa.states[succ] = out.clone()
			} else if !cur.join(out) {
				continue
			}
			if !inWork[succ] {
				inWork[succ] = true
				work = append(work, succ)
			}
		}
	}

	// Report pass: deterministic order, final in-states.
	for _, n := range fa.cfg.Nodes {
		st, ok := fa.states[n]
		if !ok {
			continue
		}
		fa.transfer(n, st.clone(), report)
	}
}

func (fa *lbFunc) flag(report func(Finding), pos token.Pos, format string, args ...any) {
	if report == nil {
		return
	}
	if pos == token.NoPos {
		pos = fa.fn.Pos()
	}
	msg := fmt.Sprintf("func %s: %s", fa.fn.Name.Name, fmt.Sprintf(format, args...))
	key := fmt.Sprintf("%d:%s", pos, msg)
	if fa.reported[key] {
		return
	}
	fa.reported[key] = true
	if fa.pkg.Allowed(fa.rule.Name(), pos) {
		return
	}
	report(Finding{
		Pos:  fa.pkg.Fset.Position(pos),
		Rule: fa.rule.Name(),
		Msg:  msg,
		Hint: lazyBoundsHint,
	})
}

// rootOf resolves an expression to the slice root it stores into / loads
// from: a parameter object, possibly through the alias map (x0 := p[a:b:c],
// dst := out.Coeffs[i]).
func (fa *lbFunc) rootOf(e ast.Expr) *rootInfo {
	obj := fa.baseObj(e)
	if obj == nil {
		return nil
	}
	if r, ok := fa.roots[obj]; ok {
		return r
	}
	if target, ok := fa.aliases[obj]; ok && target != nil {
		if r, ok := fa.roots[target]; ok {
			return r
		}
	}
	return nil
}

// baseObj walks an expression down to its base identifier: p, p[i:j],
// a.Coeffs[i][:n:n] all resolve to the leftmost identifier.
func (fa *lbFunc) baseObj(e ast.Expr) types.Object {
	for {
		switch x := unparen(e).(type) {
		case *ast.Ident:
			return lbObjOf(fa.pkg, x)
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X // &x
		default:
			return nil
		}
	}
}

// ---------------------------------------------------------------------------
// Transfer function

func (fa *lbFunc) transfer(n *CFGNode, st *lbState, report func(Finding)) *lbState {
	switch n.Kind {
	case KindEntry, KindJoin:
		return st
	case KindExit:
		fa.checkExit(report)
		return st
	case KindCond:
		if rs, ok := n.Stmt.(*ast.RangeStmt); ok {
			fa.rangeBind(rs, st, report)
			return st
		}
		for _, e := range n.Exprs {
			fa.eval(e, st, report)
		}
		return st
	}
	switch s := n.Stmt.(type) {
	case *ast.AssignStmt:
		fa.assign(s, st, report)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					v := topVal()
					if i < len(vs.Values) {
						v = fa.eval(vs.Values[i], st, report)
					}
					if obj := lbObjOf(fa.pkg, name); obj != nil {
						st.set(obj, v)
					}
				}
			}
		}
	case *ast.ExprStmt:
		fa.eval(s.X, st, report)
	case *ast.ReturnStmt:
		for i, res := range s.Results {
			v := fa.eval(res, st, report)
			if i == 0 {
				fa.checkReturn(res, v, st, report)
			}
		}
		fa.checkRegionsRestored(s.Pos(), report)
	case *ast.IncDecStmt:
		if id, ok := unparen(s.X).(*ast.Ident); ok {
			st.set(lbObjOf(fa.pkg, id), topVal())
		}
	case *ast.DeferStmt:
		fa.eval(s.Call, st, report)
	case *ast.GoStmt:
		fa.eval(s.Call, st, report)
	case *ast.SendStmt:
		fa.eval(s.Value, st, report)
	}
	return st
}

func (fa *lbFunc) rangeBind(rs *ast.RangeStmt, st *lbState, report func(Finding)) {
	fa.eval(rs.X, st, report)
	if id, ok := rs.Key.(*ast.Ident); ok && !isBlank(id) {
		st.set(lbObjOf(fa.pkg, id), topVal())
	}
	if rs.Value == nil {
		return
	}
	id, ok := rs.Value.(*ast.Ident)
	if !ok || isBlank(id) {
		return
	}
	v := topVal()
	if tv, ok := fa.pkg.Info.Types[rs.X]; ok {
		if sl, ok := tv.Type.Underlying().(*types.Slice); ok && isUint64Word(sl.Elem()) {
			v = fa.loadFrom(rs.X, rs.X.Pos())
		}
	}
	st.set(lbObjOf(fa.pkg, id), v)
}

// loadFrom is the abstract value of an element read from the slice expr e.
func (fa *lbFunc) loadFrom(e ast.Expr, pos token.Pos) absVal {
	r := fa.rootOf(e)
	if r == nil {
		return assumedResidue(1)
	}
	if k := r.loadCeiling(pos); k > 0 {
		if r.annotated {
			return knownResidue(k)
		}
		return assumedResidue(k)
	}
	return topVal() // declared any: genuinely unbounded (raw 128-bit words)
}

func (fa *lbFunc) assign(s *ast.AssignStmt, st *lbState, report func(Finding)) {
	// Multi-value forms: a, b := f() — nothing tracked survives.
	if len(s.Lhs) != len(s.Rhs) {
		for _, rhs := range s.Rhs {
			fa.eval(rhs, st, report)
		}
		for _, lhs := range s.Lhs {
			if id, ok := unparen(lhs).(*ast.Ident); ok && !isBlank(id) {
				st.set(lbObjOf(fa.pkg, id), topVal())
			}
		}
		return
	}
	// Evaluate all RHS against the pre-state (Go tuple-assign semantics).
	vals := make([]absVal, len(s.Rhs))
	for i, rhs := range s.Rhs {
		switch s.Tok {
		case token.ASSIGN, token.DEFINE:
			vals[i] = fa.eval(rhs, st, report)
		case token.ADD_ASSIGN:
			vals[i] = addVals(fa.eval(s.Lhs[i], st, nil), fa.eval(rhs, st, report))
		case token.SUB_ASSIGN:
			vals[i] = subVals(fa.eval(s.Lhs[i], st, nil), fa.eval(rhs, st, report))
		default:
			fa.eval(rhs, st, report)
			vals[i] = topVal()
		}
	}
	for i, lhs := range s.Lhs {
		fa.assignTo(lhs, vals[i], st, report)
	}
}

func (fa *lbFunc) assignTo(lhs ast.Expr, v absVal, st *lbState, report func(Finding)) {
	switch x := unparen(lhs).(type) {
	case *ast.Ident:
		if isBlank(x) {
			return
		}
		st.set(lbObjOf(fa.pkg, x), v)
	case *ast.IndexExpr:
		fa.checkStore(x, v, report)
	}
}

// checkStore is defect class (b): a store into a slice with a declared (or
// strict-default) ceiling must deposit a value inside that ceiling.
func (fa *lbFunc) checkStore(lhs *ast.IndexExpr, v absVal, report func(Finding)) {
	if tv, ok := fa.pkg.Info.Types[lhs]; !ok || !isUint64Word(tv.Type) {
		return
	}
	r := fa.rootOf(lhs.X)
	if r == nil {
		return
	}
	ceiling := r.activeCeiling(lhs.Pos())
	if ceiling == 0 {
		return
	}
	res := v.asResidue()
	if res.kind != avResidue || !res.known || res.bound <= ceiling {
		return
	}
	fa.flag(report, lhs.Pos(),
		"stores a [0,%dq) value into %s, whose active domain is [0,%dq) — missing normalization before store",
		res.bound, r.name, ceiling)
}

func (fa *lbFunc) checkReturn(res ast.Expr, v absVal, st *lbState, report func(Finding)) {
	if tv, ok := fa.pkg.Info.Types[res]; !ok || !isUint64Word(tv.Type) {
		return
	}
	rv := v.asResidue()
	if rv.kind != avResidue || !rv.known {
		return
	}
	if fa.retDom != nil {
		if fa.retDom.kind == domResidue && rv.bound > fa.retDom.k {
			fa.flag(report, res.Pos(),
				"returns a [0,%dq) value but the contract declares ret:%s — annotation unprovable",
				rv.bound, fa.retDom)
		}
		return
	}
	if fa.strict && rv.bound > 1 {
		fa.flag(report, res.Pos(),
			"returns a non-canonical [0,%dq) value without a //alchemist:domain ret: contract",
			rv.bound)
	}
}

// checkRegionsRestored is the exit half of defect class (b): every annotated
// in-place region must be back at its entry contract when the function can
// return.
func (fa *lbFunc) checkRegionsRestored(pos token.Pos, report func(Finding)) {
	for _, r := range fa.sortedRoots() {
		if len(r.marks) == 0 || r.entryK == 0 {
			continue
		}
		if active := r.activeCeiling(pos); active > r.entryK {
			fa.flag(report, pos,
				"%s is in [0,%dq) at return but its contract declares [0,%dq) — in-place domain not restored",
				r.name, active, r.entryK)
		}
	}
}

func (fa *lbFunc) sortedRoots() []*rootInfo {
	out := make([]*rootInfo, 0, len(fa.roots))
	for _, r := range fa.roots {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func (fa *lbFunc) checkExit(report func(Finding)) {
	pos := token.NoPos
	if fa.fn.Body != nil {
		pos = fa.fn.Body.Rbrace
	}
	fa.checkRegionsRestored(pos, report)
}

// ---------------------------------------------------------------------------
// Expression evaluation

func (fa *lbFunc) eval(e ast.Expr, st *lbState, report func(Finding)) absVal {
	e = unparen(e)
	if tv, ok := fa.pkg.Info.Types[e]; ok && tv.Value != nil {
		return topVal() // untyped/typed constants carry no q-relation
	}
	switch x := e.(type) {
	case *ast.Ident:
		return st.get(lbObjOf(fa.pkg, x))
	case *ast.SelectorExpr:
		if modulusFields[x.Sel.Name] && isUint64Type(fa.pkg, e) {
			return modMulVal(1)
		}
		return topVal()
	case *ast.IndexExpr:
		if sel, ok := unparen(x.X).(*ast.SelectorExpr); ok && modulusFields[sel.Sel.Name] && isUint64Type(fa.pkg, e) {
			return modMulVal(1)
		}
		if id, ok := unparen(x.X).(*ast.Ident); ok && modulusFields[id.Name] && isUint64Type(fa.pkg, e) {
			// A local table of moduli (moduli := r.Moduli[:level+1]).
			return modMulVal(1)
		}
		fa.eval(x.Index, st, report)
		if !isUint64Type(fa.pkg, e) {
			return topVal()
		}
		return fa.loadFrom(x.X, x.Pos())
	case *ast.BinaryExpr:
		return fa.evalBinary(x, st, report)
	case *ast.CallExpr:
		return fa.evalCallOrConv(x, st, report)
	case *ast.UnaryExpr, *ast.StarExpr, *ast.CompositeLit, *ast.FuncLit,
		*ast.TypeAssertExpr, *ast.SliceExpr:
		return topVal()
	}
	return topVal()
}

func isUint64Type(p *Package, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	return ok && tv.Type != nil && isUint64Word(tv.Type)
}

func (fa *lbFunc) evalBinary(x *ast.BinaryExpr, st *lbState, report func(Finding)) absVal {
	if !isUint64Type(fa.pkg, x) {
		fa.eval(x.X, st, report)
		fa.eval(x.Y, st, report)
		return topVal()
	}
	a := fa.eval(x.X, st, report)
	b := fa.eval(x.Y, st, report)
	switch x.Op {
	case token.ADD:
		return addVals(a, b)
	case token.SUB:
		return subVals(a, b)
	case token.MUL:
		if c, ok := fa.intConst(x.X); ok {
			return mulConst(b, c)
		}
		if c, ok := fa.intConst(x.Y); ok {
			return mulConst(a, c)
		}
		return topVal()
	case token.SHL:
		if c, ok := fa.intConst(x.Y); ok && c >= 0 && c < 7 {
			return mulConst(a, 1<<c)
		}
		return topVal()
	case token.SHR:
		// v>>c < bound·q still holds; the lower bound is lost.
		if r := a.asResidue(); r.kind == avResidue {
			return absVal{kind: avResidue, bound: r.bound, bias: 0, known: r.known}
		}
		return topVal()
	}
	return topVal()
}

func (fa *lbFunc) intConst(e ast.Expr) (int, bool) {
	tv, ok := fa.pkg.Info.Types[unparen(e)]
	if !ok || tv.Value == nil {
		return 0, false
	}
	i, err := strconv.ParseInt(tv.Value.ExactString(), 10, 64)
	if err != nil || i < 0 || i > int64(maxBound) {
		return 0, false
	}
	return int(i), true
}

func (fa *lbFunc) evalCallOrConv(call *ast.CallExpr, st *lbState, report func(Finding)) absVal {
	// Type conversions pass uint64 operands through unchanged.
	if tv, ok := fa.pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			inner := fa.eval(call.Args[0], st, report)
			if isUint64Type(fa.pkg, call.Args[0]) && isUint64Type(fa.pkg, call) {
				return inner
			}
		}
		return topVal()
	}
	return fa.evalCall(call, st, report)
}

// evalCall dispatches on the intrinsic table and same-package annotated
// contracts, in that order.
func (fa *lbFunc) evalCall(call *ast.CallExpr, st *lbState, report func(Finding)) absVal {
	name := lbCallName(call)
	args := call.Args

	argVal := func(i int) absVal {
		if i < len(args) {
			return fa.eval(args[i], st, report)
		}
		return topVal()
	}
	// checkArgMax is defect class (a): a known residue wider than the
	// callee's declared input domain.
	checkArgMax := func(i, max int) absVal {
		v := argVal(i)
		r := v.asResidue()
		if r.kind == avResidue && r.known && r.bound > max {
			fa.flag(report, args[i].Pos(),
				"argument %d of %s is in [0,%dq) but the callee requires [0,%dq)",
				i+1, name, r.bound, max)
		}
		return v
	}
	checkMod := func(i, want int) absVal {
		v := argVal(i)
		if v.kind == avModMul && v.bound != want {
			fa.flag(report, args[i].Pos(),
				"modulus argument of %s is %d·q, want %d·q", name, v.bound, want)
		}
		return v
	}

	switch name {
	case "AddMod", "SubMod", "MulMod":
		if len(args) == 3 {
			checkArgMax(0, 1)
			checkArgMax(1, 1)
			checkMod(2, 1)
			return knownResidue(1)
		}
		if len(args) == 2 { // Barrett.MulMod(a, b)
			return knownResidue(1)
		}
	case "NegMod":
		if len(args) == 2 {
			checkArgMax(0, 1)
			checkMod(1, 1)
			return knownResidue(1)
		}
	case "PowMod":
		if len(args) == 3 {
			argVal(0) // PowMod folds a into [0,q) itself
			argVal(1)
			checkMod(2, 1)
			return knownResidue(1)
		}
	case "InvMod":
		if len(args) == 2 {
			checkMod(1, 1)
			return knownResidue(1)
		}
	case "ReduceSigned":
		if len(args) == 2 {
			checkMod(1, 1)
			return knownResidue(1)
		}
	case "ReduceWord":
		if len(args) == 1 {
			argVal(0)
			return knownResidue(1)
		}
	case "Reduce":
		if len(args) == 2 { // Barrett.Reduce(hi, lo)
			argVal(0)
			argVal(1)
			return knownResidue(1)
		}
	case "MulModShoup":
		if len(args) == 4 {
			checkArgMax(0, 1)
			checkArgMax(1, 1)
			argVal(2)
			checkMod(3, 1)
			return knownResidue(1)
		}
	case "MulModShoupLazy":
		if len(args) == 4 {
			checkArgMax(0, 4)
			checkArgMax(1, 1)
			argVal(2)
			checkMod(3, 1)
			// The [0,2q) output contract holds for any admissible input,
			// so the result is known regardless of input provenance.
			return knownResidue(2)
		}
	case "ShoupPrecomp":
		if len(args) == 2 {
			checkArgMax(0, 1)
			checkMod(1, 1)
			return topVal() // ⌊w·2^64/q⌋ is a precomputed word, not a residue
		}
	case "condSub", "condSubMask":
		if len(args) == 2 {
			in := argVal(0)
			m := argVal(1)
			if m.kind != avModMul {
				return in // unknown modulus multiple: no narrowing proven
			}
			out, narrowed := condSubVal(in, m.bound)
			if narrowed {
				fa.recordSite(call, args[0], name, report)
			}
			return out
		}
	case "reduceOnce":
		if len(args) == 3 {
			in := argVal(0)
			m1 := checkMod(1, 2)
			m2 := checkMod(2, 1)
			k1, k2 := 2, 1
			if m1.kind == avModMul {
				k1 = m1.bound
			}
			if m2.kind == avModMul {
				k2 = m2.bound
			}
			mid, n1 := condSubVal(in, k1)
			out, n2 := condSubVal(mid, k2)
			if n1 || n2 {
				fa.recordSite(call, args[0], name, report)
			}
			return out
		}
	case "NTTLazy", "INTTLazy", "NTT", "INTT":
		if len(args) == 1 {
			if r := fa.rootOf(args[0]); r != nil {
				if k := r.activeCeiling(args[0].Pos()); k > 1 && r.annotated {
					fa.flag(report, args[0].Pos(),
						"argument of %s is in [0,%dq) but the transform requires canonical [0,q) input", name, k)
				}
			}
			return topVal()
		}
	}

	// Same-package annotated contract?
	if contract, ok := fa.contracts[name]; ok && !isOwnRecursion(fa.fn, name) {
		return fa.applyContract(name, contract, call, st, report)
	}

	// Unknown call: evaluate arguments for nested findings; a uint64 result
	// is assumed canonical by repo convention.
	for _, a := range args {
		fa.eval(a, st, report)
	}
	if isUint64Type(fa.pkg, call) {
		return assumedResidue(1)
	}
	return topVal()
}

// isOwnRecursion avoids applying a function's own contract to recursive
// calls with the entry assumptions already in force (sound but confusing in
// reports); the recursive call is treated as unknown instead.
func isOwnRecursion(fd *ast.FuncDecl, name string) bool {
	return fd.Name.Name == name
}

// applyContract checks a call against a same-package //alchemist:domain
// contract: scalar arguments against their declared input domains, slice
// arguments against the callee's entry ceiling, and yields the declared
// return domain.
func (fa *lbFunc) applyContract(name string, contract map[string]domSpec, call *ast.CallExpr, st *lbState, report func(Finding)) absVal {
	decl := fa.declOf(name)
	if decl != nil {
		params := flattenParams(decl)
		for i, a := range call.Args {
			if i >= len(params) {
				break
			}
			dom, ok := contract[params[i]]
			if !ok {
				fa.eval(a, st, report)
				continue
			}
			switch dom.kind {
			case domModulus:
				v := fa.eval(a, st, report)
				if v.kind == avModMul && v.bound != 1 {
					fa.flag(report, a.Pos(), "modulus argument of %s is %d·q, want q", name, v.bound)
				}
			case domResidue:
				if isUint64Type(fa.pkg, a) {
					v := fa.eval(a, st, report).asResidue()
					if v.kind == avResidue && v.known && v.bound > dom.k {
						fa.flag(report, a.Pos(),
							"argument %d of %s is in [0,%dq) but its contract declares %s",
							i+1, name, v.bound, dom)
					}
				} else if r := fa.rootOf(a); r != nil && r.annotated {
					if k := r.loadCeiling(a.Pos()); k > dom.k {
						fa.flag(report, a.Pos(),
							"argument %d of %s holds [0,%dq) values but its contract declares %s",
							i+1, name, k, dom)
					}
				} else {
					fa.eval(a, st, report)
				}
			default:
				fa.eval(a, st, report)
			}
		}
	} else {
		for _, a := range call.Args {
			fa.eval(a, st, report)
		}
	}
	if ret, ok := contract["ret"]; ok && ret.kind == domResidue {
		return knownResidue(ret.k)
	}
	if isUint64Type(fa.pkg, call) {
		return assumedResidue(1)
	}
	return topVal()
}

// declOf finds the same-package FuncDecl with the given name.
func (fa *lbFunc) declOf(name string) *ast.FuncDecl {
	for _, f := range fa.pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
				return fd
			}
		}
	}
	return nil
}

// flattenParams lists a declaration's parameter names in call-argument order.
func flattenParams(fd *ast.FuncDecl) []string {
	var out []string
	if fd.Type.Params == nil {
		return out
	}
	for _, field := range fd.Type.Params.List {
		if len(field.Names) == 0 {
			out = append(out, "_")
			continue
		}
		for _, n := range field.Names {
			out = append(out, n.Name)
		}
	}
	return out
}

// recordSite reports a proven normalization to the mutation hook. Sites are
// only recorded in the report pass so the fixpoint iterations cannot
// duplicate them.
func (fa *lbFunc) recordSite(call *ast.CallExpr, arg ast.Expr, kind string, report func(Finding)) {
	if report == nil || fa.rule.onNormalize == nil || fa.sites[call.Pos()] {
		return
	}
	fa.sites[call.Pos()] = true
	fa.rule.onNormalize(NormalizeSite{
		File:   fa.pkg.Fset.Position(call.Pos()).Filename,
		Pos:    call.Pos(),
		End:    call.End(),
		ArgPos: arg.Pos(),
		ArgEnd: arg.End(),
		Kind:   kind,
		Fn:     fa.fn.Name.Name,
	})
}

// lbObjOf resolves an identifier to its object (definition or use).
func lbObjOf(p *Package, id *ast.Ident) types.Object {
	if obj := p.Info.Defs[id]; obj != nil {
		return obj
	}
	return p.Info.Uses[id]
}

// lbCallName is the bare callee name of a call: the selector for method and
// qualified calls, the identifier for plain function calls. Unlike
// arenalife's callName it does not default method-less calls to a borrow.
func lbCallName(call *ast.CallExpr) string {
	switch f := unparen(call.Fun).(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}
