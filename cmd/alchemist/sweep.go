package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"

	"alchemist/internal/bench"
	"alchemist/internal/engine"
)

// runSweep regenerates the paper's full evaluation through the batch
// engine: every generator fans its simulations onto one worker pool, and
// the memo cache collapses the graphs shared between reports.
//
//	alchemist sweep                 # all reports, text
//	alchemist sweep -only table7    # one report (an unknown id exits 2)
//	alchemist sweep -workers 4 -csv # CSV, bounded pool
//	alchemist sweep -verify -stats  # serial cross-check + engine counters
func runSweep(args []string) {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	var (
		workers = fs.Int("workers", runtime.NumCPU(), "evaluation pool size")
		csv     = fs.Bool("csv", false, "emit CSV instead of aligned text")
		only    = fs.String("only", "", "comma-separated report IDs (default all)")
		verify  = fs.Bool("verify", false, "re-run serially and require byte-identical output")
		stats   = fs.Bool("stats", false, "print engine statistics after the sweep")
	)
	fs.Parse(args)

	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			want[id] = true
		}
	}
	render := func(reports []*bench.Report) string {
		var b strings.Builder
		for _, r := range reports {
			if len(want) > 0 && !want[r.ID] {
				continue
			}
			if *csv {
				b.WriteString(r.CSV())
			} else {
				b.WriteString(r.String())
			}
			b.WriteByte('\n')
		}
		return b.String()
	}

	eng := engine.New(engine.WithWorkers(*workers))
	defer eng.Close()
	c := bench.NewCtx(context.Background(), eng)
	reports := c.All()
	ids := make([]string, len(reports))
	for i, r := range reports {
		ids[i] = r.ID
	}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id != "" && !slices.Contains(ids, id) {
			fmt.Fprintf(os.Stderr, "sweep: no report with id %q; valid ids: %s\n", id, strings.Join(ids, " "))
			os.Exit(2)
		}
	}
	out := render(reports)
	fmt.Print(out)

	if *verify {
		serialEng := engine.New(engine.WithWorkers(1))
		sc := bench.NewCtx(context.Background(), serialEng)
		serial := render(sc.AllSerial())
		serialEng.Close()
		if serial != out {
			fmt.Fprintln(os.Stderr, "verify: FAIL — parallel sweep differs from serial reference")
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "verify: parallel output byte-identical to serial")
	}
	if *stats {
		st := eng.Stats()
		fmt.Fprintf(os.Stderr,
			"engine: %d workers, %d jobs (%d cached, hit rate %.0f%%), %d failed, total wall %v\n",
			st.Workers, st.Submitted, st.CacheHits, 100*st.HitRate(), st.Failed, st.TotalWall)
	}
}
