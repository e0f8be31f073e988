package lint

import "strings"

// WeakRand implements the no-weak-rand rule: the scheme packages must not
// import math/rand. Library randomness flows through alchemist/internal/prng
// — explicitly seeded and injectable — so key material and noise sampling
// are reproducible and never silently fall back to a global source. A site
// that genuinely needs math/rand carries //alchemist:allow weak-rand <reason>.
type WeakRand struct {
	// Scope lists import-path substrings of the disciplined packages.
	Scope []string
}

// NewWeakRand returns the rule scoped to the scheme and kernel packages.
func NewWeakRand(module string) *WeakRand {
	return &WeakRand{Scope: []string{
		module + "/internal/ring",
		module + "/internal/tfhe",
		module + "/internal/rlwe",
		module + "/internal/ckks",
		module + "/internal/bgv",
	}}
}

func (*WeakRand) Name() string { return "weak-rand" }

func (*WeakRand) Doc() string {
	return "scheme packages (ring, tfhe, rlwe, ckks, bgv) must use internal/prng, not math/rand"
}

func (w *WeakRand) Check(p *Package, report func(Finding)) {
	if !matchAny(p.PkgPath, w.Scope) {
		return
	}
	for _, f := range p.Files {
		for _, spec := range f.Imports {
			path := strings.Trim(spec.Path.Value, `"`)
			if path != "math/rand" && path != "math/rand/v2" {
				continue
			}
			if p.Allowed(w.Name(), spec.Pos()) {
				continue
			}
			report(Finding{
				Pos:  p.Fset.Position(spec.Pos()),
				Rule: w.Name(),
				Msg:  "import of " + path + " in scheme package " + p.PkgPath,
				Hint: "use alchemist/internal/prng (explicitly seeded, injectable) or annotate //alchemist:allow weak-rand <reason>",
			})
		}
	}
}
