package config

import (
	"strings"
	"testing"
)

func TestDefaultValidates(t *testing.T) {
	for cores := 1; cores <= 4; cores++ {
		c := Default(cores)
		if err := c.Validate(); err != nil {
			t.Errorf("Default(%d) invalid: %v", cores, err)
		}
	}
}

func TestDefaultMatchesPaperFigure1(t *testing.T) {
	c := Default(4)
	if c.Core.IntQueue != 64 || c.Core.FPQueue != 64 || c.Core.LSQueue != 64 {
		t.Errorf("queue sizes %d/%d/%d, want 64/64/64",
			c.Core.IntQueue, c.Core.FPQueue, c.Core.LSQueue)
	}
	if c.Core.IntUnits != 4 || c.Core.FPUnits != 3 || c.Core.LSUnits != 2 {
		t.Errorf("unit counts %d/%d/%d, want 4/3/2",
			c.Core.IntUnits, c.Core.FPUnits, c.Core.LSUnits)
	}
	if c.Core.PhysRegs != 320 {
		t.Errorf("phys regs %d, want 320", c.Core.PhysRegs)
	}
	if c.Core.ROBPerThread != 256 {
		t.Errorf("ROB %d, want 256", c.Core.ROBPerThread)
	}
	if c.Core.RASEntries != 100 {
		t.Errorf("RAS %d, want 100", c.Core.RASEntries)
	}
	if c.Core.BTBEntries != 256 || c.Core.BTBAssoc != 4 {
		t.Errorf("BTB %d/%d-way, want 256/4-way", c.Core.BTBEntries, c.Core.BTBAssoc)
	}
	if c.Mem.L1I.SizeBytes != 64<<10 || c.Mem.L1I.Assoc != 4 || c.Mem.L1I.Banks != 8 {
		t.Errorf("L1I geometry %+v mismatches paper", c.Mem.L1I)
	}
	if c.Mem.L1D.SizeBytes != 32<<10 || c.Mem.L1D.Assoc != 4 || c.Mem.L1D.Banks != 8 {
		t.Errorf("L1D geometry %+v mismatches paper", c.Mem.L1D)
	}
	if c.Mem.L2.Assoc != 12 || c.Mem.L2.Banks != 4 || c.Mem.L2.Latency != 15 {
		t.Errorf("L2 geometry %+v mismatches paper", c.Mem.L2)
	}
	// Nominal 4MB, realizable to within 0.1%.
	if d := (4 << 20) - c.Mem.L2.SizeBytes; d < 0 || d > 4<<20/1000 {
		t.Errorf("L2 size %d too far from nominal 4MB", c.Mem.L2.SizeBytes)
	}
	if c.L1Latency != 3 || c.Mem.L1MissLatency != 22 {
		t.Errorf("L1 lat/miss %d/%d, want 3/22", c.L1Latency, c.Mem.L1MissLatency)
	}
	if c.Mem.MainMemoryLatency != 250 {
		t.Errorf("memory latency %d, want 250", c.Mem.MainMemoryLatency)
	}
	if c.Mem.TLBEntries != 512 || c.Mem.TLBMissLatency != 300 {
		t.Errorf("TLB %d/%d, want 512/300", c.Mem.TLBEntries, c.Mem.TLBMissLatency)
	}
}

func TestMTDelay(t *testing.T) {
	c := Default(1)
	if got := c.MTDelay(); got != 0 {
		t.Errorf("single core MT = %d, want 0", got)
	}
	c = Default(4)
	want := (c.Mem.BusDelay + c.Mem.L2.Latency) * 3
	if got := c.MTDelay(); got != want {
		t.Errorf("4-core MT = %d, want %d", got, want)
	}
}

func TestMinMaxL2Latency(t *testing.T) {
	c := Default(2)
	if c.MinL2Latency() != 22 {
		t.Errorf("MIN = %d, want 22", c.MinL2Latency())
	}
	if c.MaxL2Latency() != 22+250 {
		t.Errorf("MAX = %d, want 272", c.MaxL2Latency())
	}
	if c.MaxL2Latency() <= c.MinL2Latency() {
		t.Error("MAX must exceed MIN")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero cores", func(c *Config) { c.Cores = 0 }},
		{"zero threads", func(c *Config) { c.Core.ThreadsPerCore = 0 }},
		{"zero fetch width", func(c *Config) { c.Core.FetchWidth = 0 }},
		{"empty int queue", func(c *Config) { c.Core.IntQueue = 0 }},
		{"no ls units", func(c *Config) { c.Core.LSUnits = 0 }},
		{"empty rob", func(c *Config) { c.Core.ROBPerThread = 0 }},
		{"no mshr", func(c *Config) { c.Core.MSHREntries = 0 }},
		{"too few regs", func(c *Config) { c.Core.PhysRegs = 128 }},
		{"odd line size", func(c *Config) { c.Mem.L2.LineBytes = 48 }},
		{"odd banks", func(c *Config) { c.Mem.L2.Banks = 3 }},
		{"zero latency", func(c *Config) { c.Mem.L2.Latency = 0 }},
		{"size not divisible", func(c *Config) { c.Mem.L2.SizeBytes = 4<<20 + 64 }},
		{"tiny page", func(c *Config) { c.Mem.PageBytes = 32 }},
		{"miss faster than hit", func(c *Config) { c.Mem.L1MissLatency = 2 }},
	}
	for _, m := range mutations {
		c := Default(2)
		m.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken config", m.name)
		}
	}
}

// TestValidateAssocBound: 16 ways is the most a cache set can hold, and
// a geometry one past it is rejected by name, not by its size arithmetic.
func TestValidateAssocBound(t *testing.T) {
	for assoc, ok := range map[int]bool{16: true, 17: false} {
		c := Default(1)
		c.Mem.L2.Assoc = assoc
		c.Mem.L2.SizeBytes = c.Mem.L2.LineBytes * assoc * c.Mem.L2.Banks * 256
		err := c.Validate()
		if ok && err != nil {
			t.Errorf("%d-way L2 rejected: %v", assoc, err)
		}
		if !ok && (err == nil || !strings.Contains(err.Error(), "16-way limit")) {
			t.Errorf("%d-way L2: err = %v, want the 16-way limit named", assoc, err)
		}
	}
}

func TestCacheGeomSets(t *testing.T) {
	g := CacheGeom{SizeBytes: 4 << 20, LineBytes: 64, Assoc: 12, Banks: 4}
	// 4MB / (64B * 12 ways * 4 banks) = 1365.33 -> must divide evenly in
	// the default config, so check the exact default arithmetic instead.
	def := Default(1).Mem.L2
	sets := def.Sets()
	if sets*def.LineBytes*def.Assoc*def.Banks != def.SizeBytes {
		t.Errorf("sets %d does not reconstruct size %d", sets, def.SizeBytes)
	}
	_ = g
}
