package lint

import (
	"go/ast"
	"go/types"
	"regexp"
)

// HotAlloc implements the hot-alloc rule: a function annotated with the
//
//	//alchemist:hot
//
// directive declares itself a steady-state-allocation-free kernel — the
// claim the arena layer (ring.BufPool, Ring.Borrow/Release) exists to make
// true and the AllocsPerRun tests pin. Inside such a function, a
// make([]uint64, ...) or make([][]uint64, ...) is the telltale regression:
// degree-sized scratch (or a per-channel header table over it, the shape the
// digit-batched conversion kernels traffic in) being
// allocated per call instead of borrowed from the pool. Return-value
// allocation belongs in an unannotated wrapper (see tfhe.SampleExtract over
// SampleExtractInto); rare legitimate sites (cold fallbacks, first-use cache
// construction) carry a reasoned //alchemist:allow hot-alloc directive.
type HotAlloc struct{}

// NewHotAlloc returns the rule. The annotation is opt-in per function, so no
// package scope is needed; the module argument matches the other
// constructors' shape.
func NewHotAlloc(module string) *HotAlloc {
	_ = module
	return &HotAlloc{}
}

func (*HotAlloc) Name() string { return "hot-alloc" }

func (*HotAlloc) Doc() string {
	return "no make([]uint64, ...), make([][]uint64, ...), or defer-in-loop inside //alchemist:hot functions; borrow scratch from the ring arenas and release it explicitly"
}

var hotDirectiveRE = regexp.MustCompile(`^//\s*alchemist:hot\s*$`)

func (h *HotAlloc) Check(p *Package, report func(Finding)) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !isHotAnnotated(fd) {
				continue
			}
			// Assembly kernels are declared bodyless on the Go side; the rule
			// cannot see their instruction stream, so a hot annotation there
			// is an unverifiable claim. The annotation belongs on the Go
			// dispatch wrapper that calls the kernel — that is where scratch
			// is borrowed and where AllocsPerRun pins the claim.
			if fd.Body == nil {
				if !p.Allowed(h.Name(), fd.Pos()) {
					report(Finding{
						Pos:  p.Fset.Position(fd.Pos()),
						Rule: h.Name(),
						Msg:  "//alchemist:hot on bodyless declaration " + fd.Name.Name + " (assembly kernel) is outside the rule's view",
						Hint: "annotate the Go dispatch wrapper that calls the kernel instead; its body is what the rule and the AllocsPerRun pins can verify",
					})
				}
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !isMakeUint64Slice(p, call) {
					return true
				}
				if p.Allowed(h.Name(), call.Pos()) {
					return true
				}
				report(Finding{
					Pos:  p.Fset.Position(call.Pos()),
					Rule: h.Name(),
					Msg:  "make(" + types.TypeString(p.Info.TypeOf(call), nil) + ", ...) inside //alchemist:hot function " + fd.Name.Name,
					Hint: "borrow scratch (ring.BufPool.Get, Ring.Borrow) and release it, move the allocation to an unannotated wrapper, or annotate //alchemist:allow hot-alloc <reason>",
				})
				return true
			})
			h.checkDeferInLoop(p, fd, report)
		}
	}
}

// checkDeferInLoop flags defer statements inside loops in hot functions.
// A defer in a loop body heap-allocates its record every iteration (the
// open-coded optimization only applies to defers that run at most once),
// so a hot kernel that borrows per-channel scratch and defers the release
// inside its channel loop silently regresses to allocs-per-op — release
// explicitly at the end of the iteration instead. Defers inside a function
// literal run when the literal returns, so a closure invoked in the loop
// restarts the context.
func (h *HotAlloc) checkDeferInLoop(p *Package, fd *ast.FuncDecl, report func(Finding)) {
	var walk func(n ast.Node, inLoop bool)
	walk = func(n ast.Node, inLoop bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			if m == n {
				return true
			}
			switch s := m.(type) {
			case *ast.ForStmt:
				if s.Init != nil {
					walk(s.Init, inLoop)
				}
				if s.Cond != nil {
					walk(s.Cond, inLoop)
				}
				if s.Post != nil {
					walk(s.Post, inLoop)
				}
				walk(s.Body, true)
				return false
			case *ast.RangeStmt:
				walk(s.X, inLoop)
				walk(s.Body, true)
				return false
			case *ast.FuncLit:
				walk(s.Body, false)
				return false
			case *ast.DeferStmt:
				if inLoop && !p.Allowed(h.Name(), s.Pos()) {
					report(Finding{
						Pos:  p.Fset.Position(s.Pos()),
						Rule: h.Name(),
						Msg:  "defer inside a loop in //alchemist:hot function " + fd.Name.Name,
						Hint: "each iteration heap-allocates a defer record; release scratch explicitly at the end of the iteration, or annotate //alchemist:allow hot-alloc <reason>",
					})
				}
			}
			return true
		})
	}
	walk(fd.Body, false)
}

// isHotAnnotated reports whether the function's doc comment carries the
// //alchemist:hot directive.
func isHotAnnotated(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if hotDirectiveRE.MatchString(c.Text) {
			return true
		}
	}
	return false
}

// isMakeUint64Slice reports whether call is the builtin make producing a
// []uint64 or [][]uint64 (the arenas' scratch currency and the per-channel
// header tables over it).
func isMakeUint64Slice(p *Package, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "make" {
		return false
	}
	if _, builtin := p.Info.Uses[id].(*types.Builtin); !builtin {
		return false // shadowed make
	}
	sl, ok := p.Info.TypeOf(call).(*types.Slice)
	if !ok {
		return false
	}
	elem := sl.Elem().Underlying()
	if inner, ok := elem.(*types.Slice); ok {
		elem = inner.Elem().Underlying()
	}
	b, ok := elem.(*types.Basic)
	return ok && b.Kind() == types.Uint64
}
