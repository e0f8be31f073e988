// Package lint is alchemist-vet's analysis engine: a repo-specific static
// analyzer built on the stdlib go/ast, go/parser and go/types packages (no
// external module dependencies). It enforces the invariants ordinary go vet
// cannot see — the arithmetic discipline (no raw % where the precomputed
// Barrett/Shoup reducers belong), the randomness discipline (no
// math/rand in scheme packages), the provenance of the paper's architecture
// constants (128 units × 16 cores stay defined in internal/arch), and the
// panic discipline for exported library entry points.
//
// Findings can be silenced at a specific site with a reasoned directive:
//
//	//alchemist:allow <rule> <reason>
//
// placed on (or immediately above) the offending line, or before the package
// clause to cover the whole file. A directive without a reason is itself a
// finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Finding is one rule violation.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
	Hint string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg)
}

// Analyzer is one vet rule.
type Analyzer interface {
	// Name returns the rule ID used in findings and allow directives.
	Name() string
	// Doc returns a one-line description for the CLI's -rules listing.
	Doc() string
	// Check inspects a type-checked package and reports findings.
	Check(p *Package, report func(Finding))
}

// Package is a parsed and type-checked package ready for analysis.
type Package struct {
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info

	directives []directive
}

// directive is one parsed //alchemist:allow comment.
type directive struct {
	rule     string
	reason   string
	file     string
	line     int  // line the comment sits on
	fileWide bool // appeared before the package clause
	used     bool // suppressed at least one finding this run
}

var directiveRE = regexp.MustCompile(`^//\s*alchemist:allow\s+(\S+)(?:\s+(.*))?$`)

// parseDirectives scans a file's comments for allow directives.
func (p *Package) parseDirectives(f *ast.File) {
	for _, group := range f.Comments {
		for _, c := range group.List {
			m := directiveRE.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			pos := p.Fset.Position(c.Pos())
			p.directives = append(p.directives, directive{
				rule:     m[1],
				reason:   strings.TrimSpace(m[2]),
				file:     pos.Filename,
				line:     pos.Line,
				fileWide: c.Pos() < f.Package,
			})
		}
	}
}

// Allowed reports whether rule is silenced at pos: by a file-wide directive,
// or by one on the same line or the line directly above. Every matching
// directive is marked used so the unused-allow rule can flag the stale rest.
func (p *Package) Allowed(rule string, pos token.Pos) bool {
	where := p.Fset.Position(pos)
	ok := false
	for i := range p.directives {
		d := &p.directives[i]
		if d.rule != rule || d.file != where.Filename {
			continue
		}
		if d.fileWide || d.line == where.Line || d.line == where.Line-1 {
			d.used = true
			ok = true
		}
	}
	return ok
}

// Imports reports whether the package imports the given path.
func (p *Package) Imports(path string) bool {
	for _, f := range p.Files {
		for _, spec := range f.Imports {
			if strings.Trim(spec.Path.Value, `"`) == path {
				return true
			}
		}
	}
	return false
}

// checkDirectives validates the package's allow directives themselves:
// every directive must name a known rule and give a reason.
func (p *Package) checkDirectives(known map[string]bool, report func(Finding)) {
	for _, d := range p.directives {
		if !known[d.rule] {
			report(Finding{
				Pos:  token.Position{Filename: d.file, Line: d.line, Column: 1},
				Rule: "directive",
				Msg:  fmt.Sprintf("allow directive names unknown rule %q", d.rule),
				Hint: "valid rules: " + strings.Join(sortedKeys(known), ", "),
			})
		}
		if d.reason == "" {
			report(Finding{
				Pos:  token.Position{Filename: d.file, Line: d.line, Column: 1},
				Rule: "directive",
				Msg:  fmt.Sprintf("allow directive for %q has no reason", d.rule),
				Hint: "write //alchemist:allow " + d.rule + " <why this site is exempt>",
			})
		}
	}
}

// checkUnusedAllow flags stale allow directives — ones that silenced no
// finding in this run — so a suppression cannot outlive the code it excused.
// Directives naming unknown rules are skipped (the directive rule already
// reports those) and reasonless ones are covered the same way; only a
// well-formed directive that suppressed nothing is stale.
func (p *Package) checkUnusedAllow(known map[string]bool, report func(Finding)) {
	for i := range p.directives {
		d := &p.directives[i]
		if d.used || !known[d.rule] || d.reason == "" {
			continue
		}
		report(Finding{
			Pos:  token.Position{Filename: d.file, Line: d.line, Column: 1},
			Rule: "unused-allow",
			Msg:  fmt.Sprintf("allow directive for %q suppresses no finding", d.rule),
			Hint: "the code this directive excused is gone; delete the stale //alchemist:allow",
		})
	}
}

// UnusedAllow is the rule identity for stale-directive findings. The check
// itself runs after every other analyzer has had its chance to mark
// directives used — the runner invokes checkUnusedAllow in its post-pass —
// so this analyzer's Check is a no-op; the type exists to give the rule a
// name, a doc line and a place in the default set.
type UnusedAllow struct{}

// NewUnusedAllow returns the stale-directive rule (repo-wide; directives are
// already per-site, so no scope applies).
func NewUnusedAllow(string) *UnusedAllow { return &UnusedAllow{} }

func (*UnusedAllow) Name() string { return "unused-allow" }

func (*UnusedAllow) Doc() string {
	return "every //alchemist:allow directive still suppresses at least one finding"
}

func (*UnusedAllow) Check(*Package, func(Finding)) {}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// matchAny reports whether s contains any of the given substrings.
func matchAny(s string, subs []string) bool {
	for _, sub := range subs {
		if strings.Contains(s, sub) {
			return true
		}
	}
	return false
}
