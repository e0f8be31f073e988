package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"
)

// TestOraclesRejectCorruptResults runs one request of every workload and
// feeds its oracle the true result and corrupted copies of it.
func TestOraclesRejectCorruptResults(t *testing.T) {
	corruptions := []struct {
		name string
		edit func(o *outcome)
	}{
		{"first slot off by one", func(o *outcome) { o.got[0]++ }},
		{"last slot off by one", func(o *outcome) { o.got[len(o.got)-1]-- }},
		{"NaN", func(o *outcome) { o.got[0] = math.NaN() }},
		{"slot dropped", func(o *outcome) { o.got = o.got[1:] }},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			inst, err := w.setup(1, newTracer())
			if err != nil {
				t.Fatal(err)
			}
			defer inst.close()
			o, err := inst.request()
			if err != nil {
				t.Fatal(err)
			}
			var clean tally
			clean.add(time.Millisecond, o, nil)
			if clean.failed != 0 {
				t.Fatalf("true result rejected: got %v want %v tol %v", o.got, o.want, o.tol)
			}
			for _, c := range corruptions {
				bad := o
				bad.got = slices.Clone(o.got)
				c.edit(&bad)
				var tl tally
				tl.add(time.Millisecond, bad, nil)
				if tl.failed == 0 {
					t.Errorf("%s: corrupted result %v accepted against %v", c.name, bad.got, o.want)
				}
			}
		})
	}
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

func names(ms []metric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.name
	}
	return out
}

// TestNamesMatchBenchmarkJSON runs every workload for two requests, untraced
// and traced, and checks that the workloads, metrics, units and directions
// it reports are the ones BENCHMARK.json declares.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	var wantWorkloads []string
	for _, w := range file.Workloads {
		wantWorkloads = append(wantWorkloads, w.Name)
	}
	var gotWorkloads []string
	for _, w := range workloads {
		gotWorkloads = append(gotWorkloads, w.name)
	}
	if !slices.Equal(gotWorkloads, wantWorkloads) {
		t.Errorf("workloads %v, BENCHMARK.json declares %v", gotWorkloads, wantWorkloads)
	}
	for _, set := range []struct {
		name     string
		code     []metric
		declared []declaredMetric
	}{{"end_to_end", endToEnd, file.EndToEnd}, {"per_layer", perLayer(), file.PerLayer}} {
		var decl []metric
		for _, m := range set.declared {
			decl = append(decl, metric{m.Name, m.Unit, m.Better})
		}
		if !slices.Equal(set.code, decl) {
			t.Errorf("%s metrics in code differ from BENCHMARK.json:\ncode %v\njson %v", set.name, set.code, decl)
		}
	}

	dir := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{seed: 1, minRequests: 2, trace: traced}
			res, err := runWorkload(w, cfg, dir)
			if err != nil {
				t.Errorf("%s trace=%v: %v", w.name, traced, err)
				continue
			}
			if res.Failed != 0 || !res.Correct || res.Attempted != 2 {
				t.Errorf("%s trace=%v: %d of %d requests failed", w.name, traced, res.Failed, res.Attempted)
			}
			want := names(endToEnd)
			if traced {
				want = names(perLayer())
			}
			var got []string
			for k := range res.Metrics {
				got = append(got, k)
			}
			sort.Strings(got)
			sort.Strings(want)
			if !slices.Equal(got, want) {
				t.Errorf("%s trace=%v reports %v, want %v", w.name, traced, got, want)
			}
			if traced {
				checkSpansFile(t, filepath.Join(dir, w.name+".json"))
			}
		}
	}
}

// checkSpansFile checks that a traced run wrote its spans to path: one root
// per traced request, every other span declared and inside its parent.
func checkSpansFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Error(err)
		return
	}
	var spans []span
	if err := json.Unmarshal(raw, &spans); err != nil {
		t.Errorf("%s: %v", path, err)
		return
	}
	roots := 0
	for _, s := range spans {
		if s.Parent < 0 {
			roots++
			if s.Name != "request" {
				t.Errorf("%s: root span %q, want request", path, s.Name)
			}
			continue
		}
		if !slices.Contains(spanNames, s.Name) {
			t.Errorf("%s: undeclared span %q", path, s.Name)
		}
		if p := spans[s.Parent]; s.Start < p.Start || s.End > p.End || s.Req != p.Req {
			t.Errorf("%s: span %q lies outside its parent %q", path, s.Name, p.Name)
		}
	}
	if roots == 0 {
		t.Errorf("%s: no traced request", path)
	}
}
