package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// ArenaLife implements the arena-lifetime rule: a path-sensitive forward
// dataflow analysis proving the Borrow/Release discipline of the ring-scoped
// scratch arenas (ring/pool.go) statically, the way streamcheck proves
// Meta-OP program legality without executing it. Runtime poison-debug
// (SetPoolDebug) catches a use-after-release only when a test happens to
// execute the broken path; this rule walks every path of the control-flow
// graph instead.
//
// The borrow/release vocabulary is the arena naming convention itself: a
// method call whose name begins with Borrow/borrow (or is Scratch) yields a
// pooled value; a method call whose name begins with Release/release
// consumes one. For every function in the kernel packages the rule proves:
//
//  1. every Borrow is matched by exactly one Release on ALL paths — early
//     returns, explicit panics and error branches included — with
//     `defer r.Release(p)` (directly or inside a deferred closure)
//     understood as releasing on every exit;
//
//  2. no use of a pooled value after its Release (and no double Release);
//
//  3. no escape of a pooled value — returning it, storing it into a struct
//     field, slice, map or channel, or capturing it in a goroutine — unless
//     the site carries an explicit ownership-transfer annotation:
//
//     //alchemist:owns <why the receiver releases this>
//
//     placed on (or immediately above) the transferring line. The
//     annotation is the documented hand-off contract: Borrow-wrapper
//     constructors, functions returning pooled results for the caller to
//     Release, and digit-batch slices released by a later range loop all
//     carry one.
//
// The analysis is intraprocedural: a pooled value received from a callee
// (e.g. the two halves KeySwitchFused returns) is the caller's to release,
// and that obligation is documented by the callee's //alchemist:owns site
// rather than re-proved here.
type ArenaLife struct {
	// Scope lists import-path substrings of the disciplined packages.
	Scope []string

	// onRelease, when set, receives every Release site whose argument the
	// analysis tracked back to a Borrow — i.e. the sites the rule actually
	// proves necessary. The mutation self-test deletes exactly these.
	onRelease func(ReleaseSite)
}

// ReleaseSite is one statically-verified Release call: the statement span
// (for textual mutation) and the released variable's name.
type ReleaseSite struct {
	File     string
	Pos, End token.Pos
	Var      string
}

// NewArenaLife returns the rule scoped to the arena-using kernel packages.
func NewArenaLife(module string) *ArenaLife {
	return &ArenaLife{Scope: []string{
		module + "/internal/ring",
		module + "/internal/rlwe",
		module + "/internal/ckks",
		module + "/internal/bgv",
		module + "/internal/tfhe",
		module + "/internal/bridge",
	}}
}

func (*ArenaLife) Name() string { return "arena-lifetime" }

func (*ArenaLife) Doc() string {
	return "every arena Borrow is Released exactly once on all paths, never used after Release, and never escapes without //alchemist:owns"
}

var ownsRE = regexp.MustCompile(`^//\s*alchemist:owns(?:\s+(.*))?$`)

// ownsDirective is one parsed //alchemist:owns comment.
type ownsDirective struct {
	file   string
	line   int
	reason string
	used   bool
}

// borrow-state lattice: one bit per reachable per-path status, joined by
// union at control-flow merges.
const (
	stBorrowed uint8 = 1 << iota // live, release still owed
	stDeferred                   // live, a deferred Release fires at exit
	stReleased                   // returned to the arena
	stEscaped                    // ownership transferred (annotated or flagged)
)

func (a *ArenaLife) Check(p *Package, report func(Finding)) {
	if !matchAny(p.PkgPath, a.Scope) {
		return
	}
	owns := parseOwns(p)
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fa := &funcAnalysis{
				rule:   a,
				pkg:    p,
				fn:     fd,
				owns:   owns,
				states: map[*CFGNode]arenaState{},
			}
			fa.run(report)
		}
	}
	for _, d := range owns {
		if d.reason == "" {
			report(Finding{
				Pos:  token.Position{Filename: d.file, Line: d.line, Column: 1},
				Rule: a.Name(),
				Msg:  "owns directive has no reason",
				Hint: "write //alchemist:owns <who releases this value and when>",
			})
		} else if !d.used {
			report(Finding{
				Pos:  token.Position{Filename: d.file, Line: d.line, Column: 1},
				Rule: a.Name(),
				Msg:  "owns directive transfers no ownership: no pooled value is borrowed, returned, stored or captured at this site",
				Hint: "delete the stale //alchemist:owns directive or move it onto the transferring line",
			})
		}
	}
}

// parseOwns scans every file's comments for ownership-transfer directives.
func parseOwns(p *Package) []*ownsDirective {
	var out []*ownsDirective
	for _, f := range p.Files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				m := ownsRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				out = append(out, &ownsDirective{
					file:   pos.Filename,
					line:   pos.Line,
					reason: strings.TrimSpace(m[1]),
				})
			}
		}
	}
	return out
}

// arenaState maps each tracked variable to its borrow-state bitset.
type arenaState map[types.Object]uint8

func (s arenaState) clone() arenaState {
	out := make(arenaState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// join unions other into s, reporting whether s changed.
func (s arenaState) join(other arenaState) bool {
	changed := false
	for k, v := range other {
		if s[k]|v != s[k] {
			s[k] |= v
			changed = true
		}
	}
	return changed
}

// funcAnalysis is the per-function dataflow run.
type funcAnalysis struct {
	rule *ArenaLife
	pkg  *Package
	fn   *ast.FuncDecl
	owns []*ownsDirective

	cfg    *CFG
	states map[*CFGNode]arenaState // in-state per node

	borrowPos map[types.Object]token.Pos // first borrow site per variable
	reported  map[string]bool            // finding dedupe across the report pass
}

func (fa *funcAnalysis) run(report func(Finding)) {
	// Quick reject: no borrow/release vocabulary anywhere in the body.
	touches := false
	ast.Inspect(fa.fn.Body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && (isBorrowName(sel.Sel.Name) || isReleaseName(sel.Sel.Name)) {
			touches = true
		}
		return !touches
	})
	if !touches {
		return
	}

	fa.cfg = BuildCFG(fa.fn.Body)
	fa.borrowPos = map[types.Object]token.Pos{}
	fa.reported = map[string]bool{}

	// Fixpoint: forward, join = bitwise union, monotone and finite.
	work := []*CFGNode{fa.cfg.Entry}
	fa.states[fa.cfg.Entry] = arenaState{}
	inWork := map[*CFGNode]bool{fa.cfg.Entry: true}
	for len(work) > 0 {
		n := work[0]
		work, inWork[n] = work[1:], false
		out := fa.transfer(n, fa.states[n].clone(), nil)
		for _, succ := range n.Succs {
			st, ok := fa.states[succ]
			if !ok {
				fa.states[succ] = out.clone()
			} else if !st.join(out) {
				continue
			}
			if !inWork[succ] {
				work = append(work, succ)
				inWork[succ] = true
			}
		}
	}

	// Report pass: deterministic node order, final in-states.
	for _, n := range fa.cfg.Nodes {
		st, reachable := fa.states[n]
		if !reachable {
			continue
		}
		fa.transfer(n, st.clone(), report)
	}
}

// transfer applies node n to state st (mutating and returning it). When
// report is non-nil, findings are emitted; the transfer itself is identical
// either way so the fixpoint and the report pass agree.
func (fa *funcAnalysis) transfer(n *CFGNode, st arenaState, report func(Finding)) arenaState {
	switch n.Kind {
	case KindEntry, KindJoin:
		return st
	case KindExit:
		fa.checkExit(st, report)
		return st
	case KindCond:
		for _, e := range n.Exprs {
			fa.scanExpr(e, st, report, ctxValue)
		}
		// A type-switch cond carries its assign payload (`v := x.(type)`):
		// scan the switched operand as a use. Range key/value bindings are
		// fresh objects; the range operand is already in Exprs.
		if as, ok := n.Stmt.(*ast.AssignStmt); ok {
			for _, rhs := range as.Rhs {
				fa.scanExpr(rhs, st, report, ctxValue)
			}
		} else if es, ok := n.Stmt.(*ast.ExprStmt); ok {
			fa.scanExpr(es.X, st, report, ctxValue)
		}
		return st
	}

	switch s := n.Stmt.(type) {
	case nil:
		return st

	case *ast.AssignStmt:
		fa.assign(s, st, report)

	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				if len(vs.Values) == len(vs.Names) {
					lhs := make([]ast.Expr, len(vs.Names))
					for i, name := range vs.Names {
						lhs[i] = name
					}
					fa.assignPairs(lhs, vs.Values, st, report)
					continue
				}
				for _, v := range vs.Values {
					fa.scanExpr(v, st, report, ctxValue)
				}
			}
		}

	case *ast.ExprStmt:
		call, _ := s.X.(*ast.CallExpr)
		if call != nil && fa.releaseStmt(s, call, st, report, false) {
			return st
		}
		if call != nil && fa.borrowCall(call) != "" {
			fa.flag(report, call.Pos(), "result of %s discarded: the pooled value can never be released", callName(call))
			return st
		}
		fa.scanExpr(s.X, st, report, ctxValue)

	case *ast.DeferStmt:
		fa.deferStmt(s, st, report)

	case *ast.ReturnStmt:
		for _, res := range s.Results {
			fa.scanExpr(res, st, report, ctxReturn)
		}

	case *ast.SendStmt:
		fa.scanExpr(s.Chan, st, report, ctxValue)
		fa.scanExpr(s.Value, st, report, ctxStore)

	case *ast.GoStmt:
		fa.scanExpr(s.Call.Fun, st, report, ctxGo)
		for _, arg := range s.Call.Args {
			fa.scanExpr(arg, st, report, ctxGo)
		}

	default:
		// IncDecStmt, EmptyStmt, etc.: scan embedded expressions as uses.
		ast.Inspect(s, func(node ast.Node) bool {
			if e, ok := node.(ast.Expr); ok {
				fa.scanExpr(e, st, report, ctxValue)
				return false
			}
			return true
		})
	}
	return st
}

// bindEffect is the deferred write half of one lhs ← rhs pair.
type bindEffect struct {
	lhs  ast.Expr
	bits uint8     // state the lhs variable receives when set
	pos  token.Pos // borrow/move origin for reporting
	set  bool
}

// assign handles bindings, rebindings, moves and stores. Go evaluates every
// RHS before any LHS is written, so parallel assignments — including the
// role swap `acc, next = next, acc` the blind-rotate loop uses — are applied
// in two phases: effects are computed against a snapshot and move sources
// unbound before any overwrite check or target bind runs.
func (fa *funcAnalysis) assign(s *ast.AssignStmt, st arenaState, report func(Finding)) {
	if len(s.Lhs) != len(s.Rhs) {
		// Multi-value RHS (x, y := f()): no borrow call returns multiple
		// values; scan the call for nested pooled traffic and treat the LHS
		// as overwrites.
		for _, rhs := range s.Rhs {
			fa.scanExpr(rhs, st, report, ctxValue)
		}
		for _, lhs := range s.Lhs {
			fa.overwriteCheck(lhs, st, report)
		}
		return
	}
	fa.assignPairs(s.Lhs, s.Rhs, st, report)
}

// assignPairs applies parallel lhs ← rhs pairs (also the DeclStmt path).
func (fa *funcAnalysis) assignPairs(lhsList, rhsList []ast.Expr, st arenaState, report func(Finding)) {
	snapshot := st.clone()
	binds := make([]bindEffect, len(rhsList))
	var moveSrcs []types.Object
	for i, rhs := range rhsList {
		lhs := lhsList[i]
		binds[i].lhs = lhs
		if _, ok := unparen(lhs).(*ast.Ident); !ok {
			// Compound target (p.C[0] = v, s.f = v): evaluating the target
			// reads its base, so any tracked value inside is a use.
			fa.scanExpr(lhs, st, report, ctxValue)
		}
		if call, ok := unparen(rhs).(*ast.CallExpr); ok && fa.borrowCall(call) != "" {
			fa.borrowBind(lhs, call, st, report, &binds[i])
			continue
		}
		// A move needs a real landing variable: `_ = p` keeps p's obligation
		// (blank takes no ownership), so it falls through to the plain-use
		// scan where an owns directive may still consume it.
		if id, ok := unparen(rhs).(*ast.Ident); ok && isLocalTarget(fa.pkg, lhs) && !isBlank(lhs) {
			if obj := fa.objOf(id); obj != nil {
				if bits, tracked := snapshot[obj]; tracked {
					// Move: the pooled value changes variables.
					if bits&stReleased != 0 {
						fa.useIdent(id, st, report, ctxValue) // use-after-release still applies
					}
					binds[i] = bindEffect{lhs: lhs, bits: bits, pos: fa.borrowPos[obj], set: true}
					moveSrcs = append(moveSrcs, obj)
					continue
				}
			}
		}
		mode := ctxValue
		if !isLocalTarget(fa.pkg, lhs) {
			mode = ctxStore
		}
		fa.scanExpr(rhs, st, report, mode)
	}
	for _, obj := range moveSrcs {
		delete(st, obj)
	}
	for i := range binds {
		fa.overwriteCheck(binds[i].lhs, st, report)
	}
	for i := range binds {
		if !binds[i].set {
			continue
		}
		id, ok := unparen(binds[i].lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := fa.objOf(id)
		if obj == nil {
			continue
		}
		st[obj] = binds[i].bits
		if _, seen := fa.borrowPos[obj]; !seen && binds[i].pos != token.NoPos {
			fa.borrowPos[obj] = binds[i].pos
		}
	}
}

// borrowBind classifies the landing spot of one fresh borrow call.
func (fa *funcAnalysis) borrowBind(lhs ast.Expr, call *ast.CallExpr, st arenaState, report func(Finding), out *bindEffect) {
	for _, arg := range call.Args {
		fa.scanExpr(arg, st, report, ctxValue)
	}
	if id, ok := unparen(lhs).(*ast.Ident); ok {
		if id.Name == "_" {
			fa.flag(report, call.Pos(), "result of %s discarded: the pooled value can never be released", callName(call))
			return
		}
		if isLocalTarget(fa.pkg, lhs) {
			if fa.objOf(id) == nil {
				return
			}
			out.bits, out.pos, out.set = stBorrowed, call.Pos(), true
			return
		}
	}
	// Borrow result stored straight into a field/index/global: an ownership
	// transfer site.
	if !fa.ownsAt(call.Pos()) {
		fa.flag(report, call.Pos(), "result of %s stored into %s: pooled value escapes the borrowing function", callName(call), describeLHS(lhs))
	}
}

// overwriteCheck reports a leak when an assignment clobbers a variable whose
// pooled value is still live on some path.
func (fa *funcAnalysis) overwriteCheck(lhs ast.Expr, st arenaState, report func(Finding)) {
	id, ok := unparen(lhs).(*ast.Ident)
	if !ok {
		return
	}
	obj := fa.objOf(id)
	if obj == nil {
		return
	}
	if bits, tracked := st[obj]; tracked && bits&stBorrowed != 0 {
		fa.flag(report, id.Pos(), "%s reassigned while its borrowed poly is still live%s: the previous value leaks from the arena", id.Name, fa.borrowedAt(obj))
	}
	if _, tracked := st[obj]; tracked {
		delete(st, obj) // the variable now holds something else
	}
}

// releaseStmt recognizes recv.Release*(x) expression statements on tracked
// variables and applies the release transfer. deferred marks a release that
// fires at function exit instead of in flow order.
func (fa *funcAnalysis) releaseStmt(stmt ast.Stmt, call *ast.CallExpr, st arenaState, report func(Finding), deferred bool) bool {
	sel := fa.methodSel(call)
	if sel == nil || !isReleaseName(sel.Sel.Name) {
		return false
	}
	fa.scanExpr(sel.X, st, report, ctxValue)
	if len(call.Args) == 0 {
		return true
	}
	for _, a := range call.Args[1:] {
		fa.scanExpr(a, st, report, ctxValue)
	}
	arg := unparen(call.Args[0])
	if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
		arg = unparen(u.X) // r.ReleaseAcc(&acc)
	}
	id, ok := arg.(*ast.Ident)
	if !ok {
		// Releasing a field/element (acc.Lo, digits[j]): outside the
		// per-variable tracking, but still a use of the base value.
		fa.scanExpr(call.Args[0], st, report, ctxValue)
		return true
	}
	obj := fa.objOf(id)
	if obj == nil {
		return true
	}
	bits, tracked := st[obj]
	if !tracked {
		return true // released value came from a callee; the callee's owns site covers it
	}
	switch {
	case bits&stReleased != 0:
		definitely := ""
		if bits == stReleased {
			definitely = "; it is already released on every path here"
		}
		fa.flag(report, call.Pos(), "double Release of %s%s%s", id.Name, fa.borrowedAt(obj), definitely)
	case bits&stDeferred != 0:
		fa.flag(report, call.Pos(), "Release of %s also scheduled by an earlier defer: it will be released twice", id.Name)
	case bits&stEscaped != 0 && bits&stBorrowed == 0:
		fa.flag(report, call.Pos(), "Release of %s after its ownership was transferred", id.Name)
	}
	if deferred {
		st[obj] = (bits &^ stBorrowed) | stDeferred
	} else {
		st[obj] = stReleased
		if fa.rule.onRelease != nil && bits&stBorrowed != 0 {
			pos := fa.pkg.Fset.Position(stmt.Pos())
			fa.rule.onRelease(ReleaseSite{File: pos.Filename, Pos: stmt.Pos(), End: stmt.End(), Var: id.Name})
		}
	}
	return true
}

// deferStmt interprets deferred releases — `defer r.Release(p)` directly or
// any Release calls inside a deferred closure — and scans other deferred
// calls as ordinary uses.
func (fa *funcAnalysis) deferStmt(s *ast.DeferStmt, st arenaState, report func(Finding)) {
	if fa.releaseStmt(s, s.Call, st, report, true) {
		return
	}
	if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fa.releaseStmt(s, call, st, report, true)
			return true
		})
		return
	}
	for _, arg := range s.Call.Args {
		fa.scanExpr(arg, st, report, ctxValue)
	}
	fa.scanExpr(s.Call.Fun, st, report, ctxValue)
}

// scan contexts: how a pooled value found at this position leaves (or stays
// inside) the function.
type scanCtx uint8

const (
	ctxValue  scanCtx = iota // ordinary use
	ctxReturn                // a return result
	ctxStore                 // stored into a field/slice/map/channel/global
	ctxGo                    // referenced from a go statement
)

// scanExpr walks e classifying every tracked identifier and every unbound
// borrow call by its context.
func (fa *funcAnalysis) scanExpr(e ast.Expr, st arenaState, report func(Finding), mode scanCtx) {
	switch e := e.(type) {
	case nil:
		return

	case *ast.Ident:
		fa.useIdent(e, st, report, mode)

	case *ast.ParenExpr:
		fa.scanExpr(e.X, st, report, mode)

	case *ast.CallExpr:
		if name := fa.borrowCall(e); name != "" {
			// A borrow whose result is consumed in place: ownership moves
			// into whatever consumes it.
			if !fa.ownsAt(e.Pos()) {
				switch mode {
				case ctxReturn:
					fa.flag(report, e.Pos(), "pooled value from %s returned to the caller without an ownership annotation", name)
				case ctxGo:
					fa.flag(report, e.Pos(), "pooled value from %s handed to a goroutine", name)
				default:
					fa.flag(report, e.Pos(), "result of %s passed out of the borrowing function without an ownership annotation", name)
				}
			}
			for _, arg := range e.Args {
				fa.scanExpr(arg, st, report, ctxValue)
			}
			return
		}
		if fa.appendCall(e) {
			// append(s, x): the appended values land in a slice.
			if len(e.Args) > 0 {
				fa.scanExpr(e.Args[0], st, report, ctxValue)
				for _, arg := range e.Args[1:] {
					fa.scanExpr(arg, st, report, storeOr(mode))
				}
			}
			return
		}
		fa.scanExpr(e.Fun, st, report, ctxValue)
		argMode := ctxValue
		if mode == ctxGo {
			argMode = ctxGo
		}
		for _, arg := range e.Args {
			fa.scanExpr(arg, st, report, argMode)
		}

	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				fa.scanExpr(kv.Value, st, report, storeOr(mode))
				continue
			}
			fa.scanExpr(elt, st, report, storeOr(mode))
		}

	case *ast.UnaryExpr:
		fa.scanExpr(e.X, st, report, mode)

	case *ast.StarExpr:
		fa.scanExpr(e.X, st, report, ctxValue)

	case *ast.BinaryExpr:
		fa.scanExpr(e.X, st, report, ctxValue)
		fa.scanExpr(e.Y, st, report, ctxValue)

	case *ast.SelectorExpr:
		// x.f: a use of x, never an escape of x itself.
		fa.scanExpr(e.X, st, report, ctxValue)

	case *ast.IndexExpr:
		fa.scanExpr(e.X, st, report, ctxValue)
		fa.scanExpr(e.Index, st, report, ctxValue)

	case *ast.SliceExpr:
		fa.scanExpr(e.X, st, report, ctxValue)
		fa.scanExpr(e.Low, st, report, ctxValue)
		fa.scanExpr(e.High, st, report, ctxValue)
		fa.scanExpr(e.Max, st, report, ctxValue)

	case *ast.TypeAssertExpr:
		fa.scanExpr(e.X, st, report, mode)

	case *ast.FuncLit:
		// A closure referencing a pooled value: inside a go statement the
		// value escapes to the goroutine; otherwise the reference is a use
		// at creation time (worker-pool callbacks run within the borrow
		// window — the runtime poison tests keep that honest).
		inner := ctxValue
		if mode == ctxGo {
			inner = ctxGo
		}
		ast.Inspect(e.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				fa.useIdent(id, st, report, inner)
			}
			return true
		})
	}
}

// storeOr keeps the stronger go-escape context when already inside one.
func storeOr(mode scanCtx) scanCtx {
	if mode == ctxGo {
		return ctxGo
	}
	return ctxStore
}

// useIdent applies a single tracked-identifier occurrence.
func (fa *funcAnalysis) useIdent(id *ast.Ident, st arenaState, report func(Finding), mode scanCtx) {
	obj := fa.objOf(id)
	if obj == nil {
		return
	}
	bits, tracked := st[obj]
	if !tracked {
		return
	}
	if bits&stReleased != 0 {
		qualifier := " on some path"
		if bits == stReleased {
			qualifier = ""
		}
		fa.flag(report, id.Pos(), "use of %s after Release%s%s: the arena may have re-issued its buffer", id.Name, qualifier, fa.borrowedAt(obj))
	}
	// An owns directive on (or above) the line consumes ownership of every
	// tracked value it mentions, whatever the syntactic context — the common
	// shape is `return ctx.wrapCt(bp, outA, ...)` where the escaping value is
	// a call argument rather than the returned expression itself.
	if fa.ownsAt(id.Pos()) {
		st[obj] = stEscaped
		return
	}
	if mode == ctxValue {
		return
	}
	switch mode {
	case ctxReturn:
		fa.flag(report, id.Pos(), "%s%s is returned to the caller without an ownership annotation", id.Name, fa.borrowedAt(obj))
	case ctxGo:
		fa.flag(report, id.Pos(), "%s%s is captured by a goroutine: its release can race the arena", id.Name, fa.borrowedAt(obj))
	case ctxStore:
		fa.flag(report, id.Pos(), "%s%s is stored outside the borrowing function", id.Name, fa.borrowedAt(obj))
	}
	st[obj] = stEscaped
}

// checkExit reports borrows still owed when control reaches the function
// exit (returns, panics and the fall-off end all join here; deferred
// releases have already converted stBorrowed to stDeferred).
func (fa *funcAnalysis) checkExit(st arenaState, report func(Finding)) {
	for obj, bits := range st {
		if bits&stBorrowed == 0 {
			continue
		}
		if bits == stBorrowed {
			fa.flag(report, fa.borrowPos[obj], "%s is never released: the pooled poly leaks from the arena on every path", obj.Name())
		} else {
			fa.flag(report, fa.borrowPos[obj], "%s is released on some paths but leaks on others (early return, panic or error branch)", obj.Name())
		}
	}
}

// --- helpers -------------------------------------------------------------

// objOf resolves an identifier to its object (definition or use).
func (fa *funcAnalysis) objOf(id *ast.Ident) types.Object {
	if obj := fa.pkg.Info.Defs[id]; obj != nil {
		return obj
	}
	return fa.pkg.Info.Uses[id]
}

// methodSel returns the selector of a method-style call (x.M(...)) when x is
// a value, not a package qualifier.
func (fa *funcAnalysis) methodSel(call *ast.CallExpr) *ast.SelectorExpr {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if id, ok := unparen(sel.X).(*ast.Ident); ok {
		if _, isPkg := fa.pkg.Info.Uses[id].(*types.PkgName); isPkg {
			return nil
		}
	}
	return sel
}

// borrowCall returns the method name when call is an arena borrow, "" when
// not.
func (fa *funcAnalysis) borrowCall(call *ast.CallExpr) string {
	sel := fa.methodSel(call)
	if sel == nil || !isBorrowName(sel.Sel.Name) {
		return ""
	}
	return sel.Sel.Name
}

// appendCall reports whether call is the builtin append.
func (fa *funcAnalysis) appendCall(call *ast.CallExpr) bool {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, builtin := fa.pkg.Info.Uses[id].(*types.Builtin)
	return builtin
}

// ownsAt reports whether the line at pos (or the line above) carries an
// ownership-transfer directive, marking it used.
func (fa *funcAnalysis) ownsAt(pos token.Pos) bool {
	where := fa.pkg.Fset.Position(pos)
	ok := false
	for _, d := range fa.owns {
		if d.file != where.Filename {
			continue
		}
		if d.line == where.Line || d.line == where.Line-1 {
			d.used = true
			ok = true
		}
	}
	return ok
}

// borrowedAt renders "(borrowed at line N)" for findings.
func (fa *funcAnalysis) borrowedAt(obj types.Object) string {
	pos, ok := fa.borrowPos[obj]
	if !ok {
		return ""
	}
	return fmt.Sprintf(" (borrowed at line %d)", fa.pkg.Fset.Position(pos).Line)
}

// flag reports one finding, deduplicating across the report pass and
// honoring allow directives.
func (fa *funcAnalysis) flag(report func(Finding), pos token.Pos, format string, args ...any) {
	if report == nil {
		return
	}
	msg := fmt.Sprintf(format, args...)
	key := fmt.Sprintf("%d:%s", pos, msg)
	if fa.reported[key] {
		return
	}
	fa.reported[key] = true
	if fa.pkg.Allowed(fa.rule.Name(), pos) {
		return
	}
	where := pos
	if where == token.NoPos {
		where = fa.fn.Pos()
	}
	report(Finding{
		Pos:  fa.pkg.Fset.Position(where),
		Rule: fa.rule.Name(),
		Msg:  "func " + fa.fn.Name.Name + ": " + msg,
		Hint: "release on every path (defer works), or annotate the transfer //alchemist:owns <reason>; see DESIGN.md §5f",
	})
}

// describeLHS renders an escape target for messages.
func describeLHS(lhs ast.Expr) string {
	switch lhs.(type) {
	case *ast.SelectorExpr:
		return "a struct field"
	case *ast.IndexExpr:
		return "a slice or map element"
	case *ast.StarExpr:
		return "a pointed-to location"
	}
	return "a non-local location"
}

// isLocalTarget reports whether lhs is a plain function-local variable (the
// only assignment target that keeps a pooled value inside the function).
func isLocalTarget(p *Package, lhs ast.Expr) bool {
	id, ok := unparen(lhs).(*ast.Ident)
	if !ok {
		return false
	}
	if id.Name == "_" {
		return true
	}
	obj := p.Info.Defs[id]
	if obj == nil {
		obj = p.Info.Uses[id]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	return !v.IsField() && v.Parent() != nil && v.Parent() != p.Types.Scope()
}

// isBorrowName reports whether an arena method name mints a pooled value.
func isBorrowName(name string) bool {
	return strings.HasPrefix(name, "Borrow") || strings.HasPrefix(name, "borrow") || name == "Scratch"
}

// isReleaseName reports whether an arena method name consumes a pooled
// value.
func isReleaseName(name string) bool {
	return strings.HasPrefix(name, "Release") || strings.HasPrefix(name, "release")
}

// isBlank reports whether e is the blank identifier.
func isBlank(e ast.Expr) bool {
	id, ok := unparen(e).(*ast.Ident)
	return ok && id.Name == "_"
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

func callName(call *ast.CallExpr) string {
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	return "borrow"
}
