package alchemist

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// filesImporting returns every non-test .go file under root whose imports
// include path. It parses imports only and skips testdata and hidden
// directories.
func filesImporting(root, path string) ([]string, error) {
	var hits []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if ip, err := strconv.Unquote(imp.Path.Value); err == nil && ip == path {
				hits = append(hits, p)
			}
		}
		return nil
	})
	return hits, err
}

// TestOracleImportedOnlyByTests keeps the reference arithmetic out of the
// shipped code: no non-test file in the repository, the benchmark module
// included, may import internal/oracle. A production import planted in a
// temporary directory must be caught, and a test import next to it must not.
func TestOracleImportedOnlyByTests(t *testing.T) {
	const oraclePath = "alchemist/internal/oracle"
	hits, err := filesImporting(".", oraclePath)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hits {
		t.Errorf("%s imports %s; only _test.go files may", h, oraclePath)
	}

	dir := t.TempDir()
	src := "package planted\n\nimport _ \"" + oraclePath + "\"\n"
	for _, name := range []string{"planted.go", "planted_test.go"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	hits, err = filesImporting(dir, oraclePath)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || filepath.Base(hits[0]) != "planted.go" {
		t.Fatalf("planted production import found as %v, want only planted.go", hits)
	}
}
