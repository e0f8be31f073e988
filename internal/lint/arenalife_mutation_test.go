package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestArenaLifeMutation is the analyzer's self-test, mirroring streamcheck's
// mutation harness: for every Release site the arena-lifetime rule
// statically proved necessary in the real kernel packages, delete exactly
// that release (rewriting the statement to a plain use so the package still
// type-checks) and assert the rule reports the injected leak. A surviving
// mutant (zero findings) means the dataflow pass has a blind spot on real
// code, not just on fixtures.
func TestArenaLifeMutation(t *testing.T) {
	if testing.Short() {
		t.Skip("re-type-checks kernel packages once per release site; skipped in -short mode")
	}
	root := repoRoot(t)
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	kernels := []string{
		"alchemist/internal/ring",
		"alchemist/internal/rlwe",
		"alchemist/internal/ckks",
		"alchemist/internal/bgv",
		"alchemist/internal/tfhe",
		"alchemist/internal/bridge",
	}
	total, escaped := 0, 0
	for _, path := range kernels {
		pkg, err := loader.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		// Collect the verified release sites. The hook fires on every
		// fixpoint visit, so dedupe by span.
		rule := NewArenaLife("alchemist")
		sites := map[ReleaseSite]bool{}
		rule.onRelease = func(s ReleaseSite) { sites[s] = true }
		rule.Check(pkg, func(Finding) {})

		if len(sites) == 0 {
			continue
		}
		dir := filepath.Join(root, strings.TrimPrefix(path, "alchemist/"))
		for site := range sites {
			total++
			src, err := os.ReadFile(site.File)
			if err != nil {
				t.Fatal(err)
			}
			start := loader.Fset.Position(site.Pos).Offset
			end := loader.Fset.Position(site.End).Offset
			mutated := fmt.Sprintf("%s_ = %s%s", src[:start], site.Var, src[end:])
			overlay := map[string][]byte{filepath.Base(site.File): []byte(mutated)}

			mpkg, err := loader.LoadDirOverlay(dir, path, overlay)
			if err != nil {
				t.Fatalf("%s: mutant at %s does not type-check: %v",
					path, loader.Fset.Position(site.Pos), err)
			}
			var findings []Finding
			NewArenaLife("alchemist").Check(mpkg, func(f Finding) { findings = append(findings, f) })
			if len(findings) == 0 {
				escaped++
				t.Errorf("mutant escaped: deleting release of %s at %s produced no finding",
					site.Var, loader.Fset.Position(site.Pos))
			}
		}
	}
	if total == 0 {
		t.Fatal("no verified release sites found in kernel packages — the onRelease hook is broken")
	}
	t.Logf("arena-lifetime mutation self-test: %d/%d mutants caught", total-escaped, total)
}
