package arch

import "testing"

func TestDefaultMatchesPaper(t *testing.T) {
	c := Default()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Cores() != 2048 {
		t.Errorf("cores %d, want 2048 (128 units x 16)", c.Cores())
	}
	if c.TotalLanes() != 16384 {
		t.Errorf("lanes %d, want 16384", c.TotalLanes())
	}
	if got := c.TotalScratchpadBytes(); got != 66<<20 {
		t.Errorf("scratchpad %d, want 66 MB (64+2)", got)
	}
	if c.HBMBytesPerCycle() != 1000 {
		t.Errorf("HBM %v B/cycle, want 1000 (1 TB/s at 1 GHz)", c.HBMBytesPerCycle())
	}
	if c.WordBytes() != 4.5 {
		t.Errorf("word bytes %v, want 4.5 (36-bit)", c.WordBytes())
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Units = 0 },
		func(c *Config) { c.CoresPerUnit = -1 },
		func(c *Config) { c.Lanes = 6 }, // not a power of two
		func(c *Config) { c.TransposeLanesPerCycle = 0 },
		func(c *Config) { c.FreqGHz = 0 },
		func(c *Config) { c.HBMBytesPerSec = -1 },
		func(c *Config) { c.WordBits = 4 },
		func(c *Config) { c.WordBits = 128 },
	}
	for i, mutate := range bad {
		c := Default()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestSlotPartitioning(t *testing.T) {
	c := Default()
	// Fig. 5(b): N=16384 → 128 slots per unit, slots 0..127 on unit 0.
	if got := c.SlotsPerUnit(16384); got != 128 {
		t.Fatalf("slots/unit %d, want 128", got)
	}
	if c.UnitOfSlot(16384, 0) != 0 || c.UnitOfSlot(16384, 127) != 0 {
		t.Fatal("slots 0-127 must live on unit 0")
	}
	if c.UnitOfSlot(16384, 128) != 1 {
		t.Fatal("slot 128 must live on unit 1")
	}
	if c.UnitOfSlot(16384, 16383) != 127 {
		t.Fatal("last slot must live on unit 127")
	}
	// Small rings: everything on few units, no division by zero.
	if c.SlotsPerUnit(64) != 1 {
		t.Fatal("tiny ring slots/unit")
	}
	if u := c.UnitOfSlot(64, 63); u != 63 {
		t.Fatalf("tiny ring slot placement: %d", u)
	}
}

func TestFourStepTile(t *testing.T) {
	c := Default()
	n1, n2 := c.FourStepTile(16384)
	if n1 != 128 || n2 != 128 {
		t.Fatalf("N=16384 tile (%d,%d), want (128,128)", n1, n2)
	}
	n1, n2 = c.FourStepTile(65536)
	if n1 != 512 || n2 != 128 {
		t.Fatalf("N=65536 tile (%d,%d), want (512,128)", n1, n2)
	}
	// TFHE-sized rings stay local.
	n1, n2 = c.FourStepTile(64)
	if n1 != 64 || n2 != 1 {
		t.Fatalf("N=64 tile (%d,%d), want (64,1)", n1, n2)
	}
}
