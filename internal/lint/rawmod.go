package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// RawMod implements the no-raw-mod rule: in the hot-path kernel package
// (internal/ring) and in any package that already imports internal/modmath,
// a binary % on uint64 operands is a discipline violation — the precomputed
// Barrett/Shoup reducers exist precisely so the inner loops never
// pay for a hardware divide, and the Meta-OP cost model (3 raw mults per
// modular mult) assumes they are used. Power-of-two constant divisors are
// exempt (they compile to a mask), as is internal/modmath itself, which is
// where the reducers are implemented.
type RawMod struct {
	// Scope lists import-path substrings that are always in scope.
	Scope []string
	// ReducerImport marks a package as in scope when imported.
	ReducerImport string
	// Exempt lists import-path substrings never in scope.
	Exempt []string
}

// NewRawMod returns the rule scoped to internal/ring plus modmath importers.
func NewRawMod(module string) *RawMod {
	return &RawMod{
		Scope:         []string{module + "/internal/ring"},
		ReducerImport: module + "/internal/modmath",
		Exempt:        []string{module + "/internal/modmath"},
	}
}

func (*RawMod) Name() string { return "raw-mod" }

func (*RawMod) Doc() string {
	return "no raw % on uint64 in internal/ring or modmath-importing packages; use the precomputed reducers"
}

func (r *RawMod) Check(p *Package, report func(Finding)) {
	if matchAny(p.PkgPath, r.Exempt) {
		return
	}
	if !matchAny(p.PkgPath, r.Scope) && !(r.ReducerImport != "" && p.Imports(r.ReducerImport)) {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.BinaryExpr:
				if e.Op == token.REM {
					r.checkSite(p, e.X, e.Y, e.OpPos, report)
				}
			case *ast.AssignStmt:
				if e.Tok == token.REM_ASSIGN && len(e.Lhs) == 1 && len(e.Rhs) == 1 {
					r.checkSite(p, e.Lhs[0], e.Rhs[0], e.TokPos, report)
				}
			}
			return true
		})
	}
}

func (r *RawMod) checkSite(p *Package, x, y ast.Expr, opPos token.Pos, report func(Finding)) {
	if !isUint64(p, x) || !isUint64(p, y) {
		return
	}
	if isPowerOfTwoConst(p, y) {
		return
	}
	if p.Allowed(r.Name(), opPos) {
		return
	}
	report(Finding{
		Pos:  p.Fset.Position(opPos),
		Rule: r.Name(),
		Msg:  "raw % on uint64 operands in hot-path package " + p.PkgPath,
		Hint: "use modmath.Barrett/MulModShoup, SubRing.ReduceWord or modmath.ReduceSigned, or annotate //alchemist:allow raw-mod <reason>",
	})
}

func isUint64(p *Package, e ast.Expr) bool {
	t := p.Info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	// Untyped constants only count when they would default to a uint64
	// context; the typed-operand side decides, so require the concrete kind.
	return b.Kind() == types.Uint64
}

func isPowerOfTwoConst(p *Package, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return false
	}
	u, ok := constant.Uint64Val(tv.Value)
	return ok && u > 0 && u&(u-1) == 0
}
