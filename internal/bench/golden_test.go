package bench

import (
	"context"
	"hash/fnv"
	"runtime"
	"testing"

	"alchemist/internal/engine"
)

// TestReportsGolden pins the rendered bytes of every paper report. The
// determinism tests compare one run against another run of the same
// commit; this hash holds the text and CSV of all reports fixed across
// commits, so a refactor of the accelerator model that moves any figure,
// even in its last digit, fails here.
//
// The hash was recorded on amd64. The reports format float64 results, and
// other architectures may fuse multiply-adds and change low digits, so the
// pin runs on amd64 only.
func TestReportsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden hash is recorded on amd64")
	}
	eng := engine.New(engine.WithWorkers(1))
	defer eng.Close()
	reports := NewCtx(context.Background(), eng).AllSerial()
	if len(reports) != 22 {
		t.Fatalf("%d reports, want 22", len(reports))
	}
	h := fnv.New64a()
	h.Write([]byte(renderAll(reports)))
	const want = 0x545405e9a68dc283
	if got := h.Sum64(); got != want {
		t.Errorf("reports hash %#016x, want %#016x", got, want)
	}
}
