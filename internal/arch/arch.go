// Package arch describes the Alchemist accelerator configuration (§5): 128
// computing units of 16 unified Meta-OP cores each, slot-based data
// partitioning across private scratchpads, a transpose register file
// connecting the units for the 4-step NTT, 2 MB of shared memory and two
// HBM2 stacks.
package arch

import "fmt"

// Paper design-point constants (§5, Table 5). These are the single source of
// truth for the architecture's shape: re-hardcoding the raw numbers outside
// this package (or internal/area) trips alchemist-vet's
// arch-constant-provenance rule. Derive from Default() or reference these
// names instead.
const (
	// PaperUnits is the number of computing units in the paper design.
	PaperUnits = 128
	// PaperCoresPerUnit is the number of unified Meta-OP cores per unit.
	PaperCoresPerUnit = 16
	// PaperLanes is the Meta-OP lane width j in (M8A8)_nR8.
	PaperLanes = 8
)

// Config is an Alchemist instance. Default() reproduces the paper's design
// point; the ablation benches sweep the fields.
type Config struct {
	Units        int // computing units (128)
	CoresPerUnit int // Meta-OP cores per unit (16)
	Lanes        int // Meta-OP lane width j (8)

	FreqGHz float64 // core clock (1 GHz)

	LocalScratchpadBytes int64 // per-unit scratchpad (512 KB)
	SharedMemoryBytes    int64 // shared memory (2 MB)

	HBMBytesPerSec float64 // off-chip bandwidth (1 TB/s)
	WordBits       int     // RNS word size (36, following SHARP)

	// TransposeLanesPerCycle is how many elements per cycle the transpose
	// register file moves between units during 4-step NTT phases.
	TransposeLanesPerCycle int
}

// Default returns the paper's design point.
func Default() Config {
	return Config{
		Units:                  PaperUnits,
		CoresPerUnit:           PaperCoresPerUnit,
		Lanes:                  PaperLanes,
		FreqGHz:                1.0,
		LocalScratchpadBytes:   512 << 10,
		SharedMemoryBytes:      2 << 20,
		HBMBytesPerSec:         1e12,
		WordBits:               36,
		TransposeLanesPerCycle: 4096,
	}
}

// Validate checks structural sanity.
func (c Config) Validate() error {
	if c.Units <= 0 || c.CoresPerUnit <= 0 || c.Lanes <= 0 {
		return fmt.Errorf("arch: non-positive compute dimensions")
	}
	if c.Lanes&(c.Lanes-1) != 0 {
		return fmt.Errorf("arch: lane width %d must be a power of two", c.Lanes)
	}
	if c.TransposeLanesPerCycle <= 0 {
		return fmt.Errorf("arch: non-positive transpose width")
	}
	if c.FreqGHz <= 0 || c.HBMBytesPerSec <= 0 {
		return fmt.Errorf("arch: non-positive frequency or bandwidth")
	}
	if c.WordBits < 8 || c.WordBits > 64 {
		return fmt.Errorf("arch: word size %d out of range", c.WordBits)
	}
	return nil
}

// Cores returns the total core count (Units × CoresPerUnit).
func (c Config) Cores() int { return c.Units * c.CoresPerUnit }

// TotalLanes returns the total multiply lanes (Cores × Lanes).
func (c Config) TotalLanes() int { return c.Cores() * c.Lanes }

// HBMBytesPerCycle returns the streaming bandwidth per core cycle.
func (c Config) HBMBytesPerCycle() float64 {
	return c.HBMBytesPerSec / (c.FreqGHz * 1e9)
}

// TotalScratchpadBytes returns the aggregate scratchpad capacity
// (the paper's "64 + 2 MB").
func (c Config) TotalScratchpadBytes() int64 {
	return int64(c.Units)*c.LocalScratchpadBytes + c.SharedMemoryBytes
}

// WordBytes returns the effective bytes per RNS word (36 bits → 4.5 B).
func (c Config) WordBytes() float64 { return float64(c.WordBits) / 8 }

// SlotsPerUnit returns how many coefficients of a degree-n polynomial each
// unit's scratchpad holds under the slot-based partitioning of Fig. 5(b).
func (c Config) SlotsPerUnit(n int) int {
	s := n / c.Units
	if s == 0 {
		s = 1
	}
	return s
}

// UnitOfSlot returns which unit owns slot j of a degree-n polynomial.
func (c Config) UnitOfSlot(n, j int) int {
	per := c.SlotsPerUnit(n)
	u := j / per
	if u >= c.Units {
		u = c.Units - 1
	}
	return u
}

// FourStepTile returns the (n1, n2) tiling the scheduler uses for a
// degree-n NTT: each unit transforms its local n1 = n/Units slice (e.g.
// 128-point sub-NTTs for N = 16384), with a transpose between the two
// passes. For rings smaller than the unit count the whole transform is
// local to one unit.
func (c Config) FourStepTile(n int) (n1, n2 int) {
	if n <= c.Units {
		return n, 1
	}
	return n / c.Units, c.Units
}
