package config

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestPresetsValidate(t *testing.T) {
	for name, mk := range Presets() {
		g := mk()
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if g.Name != name {
			t.Errorf("preset %s reports name %s", name, g.Name)
		}
	}
}

func TestGT240MatchesTableII(t *testing.T) {
	g := GT240()
	if got := g.NumCores(); got != 12 {
		t.Errorf("GT240 cores = %d, want 12", got)
	}
	if g.MaxThreadsPerCore != 768 {
		t.Errorf("GT240 threads/core = %d, want 768", g.MaxThreadsPerCore)
	}
	if g.FUsPerCore != 8 {
		t.Errorf("GT240 FUs/core = %d, want 8", g.FUsPerCore)
	}
	if g.UncoreClockMHz != 550 {
		t.Errorf("GT240 uncore = %v, want 550", g.UncoreClockMHz)
	}
	if r := g.UncoreRatio(); r < 2.4 || r > 2.5 {
		t.Errorf("GT240 shader-to-uncore = %v, want ~2.47", r)
	}
	if g.MaxWarpsPerCore != 24 {
		t.Errorf("GT240 warps = %d, want 24", g.MaxWarpsPerCore)
	}
	if g.HasScoreboard {
		t.Error("GT240 must not have a scoreboard (Table II)")
	}
	if g.L2KB != 0 {
		t.Error("GT240 must not have an L2 (Table II)")
	}
	if g.ProcessNM != 40 {
		t.Errorf("GT240 process = %v, want 40", g.ProcessNM)
	}
	if g.Clusters != 4 {
		t.Errorf("GT240 clusters = %d, want 4 (paper Fig. 4)", g.Clusters)
	}
}

func TestGTX580MatchesTableII(t *testing.T) {
	g := GTX580()
	if got := g.NumCores(); got != 16 {
		t.Errorf("GTX580 cores = %d, want 16", got)
	}
	if g.MaxThreadsPerCore != 1536 {
		t.Errorf("GTX580 threads/core = %d, want 1536", g.MaxThreadsPerCore)
	}
	if g.FUsPerCore != 32 {
		t.Errorf("GTX580 FUs/core = %d, want 32", g.FUsPerCore)
	}
	if g.UncoreClockMHz != 882 {
		t.Errorf("GTX580 uncore = %v, want 882", g.UncoreClockMHz)
	}
	if r := g.UncoreRatio(); r != 2 {
		t.Errorf("GTX580 shader-to-uncore = %v, want 2", r)
	}
	if g.MaxWarpsPerCore != 48 {
		t.Errorf("GTX580 warps = %d, want 48", g.MaxWarpsPerCore)
	}
	if !g.HasScoreboard {
		t.Error("GTX580 must have a scoreboard (Table II)")
	}
	if g.L2KB != 768 {
		t.Errorf("GTX580 L2 = %d KB, want 768 (Table II)", g.L2KB)
	}
}

func TestPaperCalibrationAnchors(t *testing.T) {
	g := GT240()
	if g.Power.IntOpPJ != 40 || g.Power.FPOpPJ != 75 {
		t.Error("GT240 must carry the paper's measured 40 pJ INT / 75 pJ FP energies")
	}
	if g.Power.GlobalSchedW != 3.34 || g.Power.ClusterBaseW != 0.692 {
		t.Error("GT240 must carry the paper's Fig. 4 base-power anchors")
	}
}

func TestXMLRoundTrip(t *testing.T) {
	for name, mk := range Presets() {
		g := mk()
		var buf bytes.Buffer
		if err := g.WriteXML(&buf); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		got, err := ReadXML(&buf)
		if err != nil {
			t.Fatalf("%s: read: %v", name, err)
		}
		got.XMLName = g.XMLName // decoder records the element name; irrelevant for equality
		if !reflect.DeepEqual(g, got) {
			t.Errorf("%s: round trip mismatch\n  in: %+v\n out: %+v", name, g, got)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "gt240.xml")
	g := GT240()
	if err := g.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got.XMLName = g.XMLName
	if !reflect.DeepEqual(g, got) {
		t.Error("file round trip mismatch")
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.xml")); err == nil {
		t.Error("loading missing file should error")
	}
}

func TestReadXMLRejectsInvalid(t *testing.T) {
	if _, err := ReadXML(strings.NewReader("<gpu name=\"x\"></gpu>")); err == nil {
		t.Error("incomplete config should fail validation")
	}
	if _, err := ReadXML(strings.NewReader("not xml at all")); err == nil {
		t.Error("garbage should fail decoding")
	}
}

func TestValidateCatchesBreakage(t *testing.T) {
	cases := []struct {
		name   string
		break_ func(*GPU)
	}{
		{"no name", func(g *GPU) { g.Name = "" }},
		{"zero process", func(g *GPU) { g.ProcessNM = 0 }},
		{"zero clock", func(g *GPU) { g.CoreClockMHz = 0 }},
		{"shader below uncore", func(g *GPU) { g.CoreClockMHz = g.UncoreClockMHz / 2 }},
		{"zero clusters", func(g *GPU) { g.Clusters = 0 }},
		{"warp size not pow2", func(g *GPU) { g.WarpSize = 24 }},
		{"thread/warp mismatch", func(g *GPU) { g.MaxThreadsPerCore = 100 }},
		{"warps beyond mask width", func(g *GPU) { g.MaxWarpsPerCore = 65; g.MaxThreadsPerCore = 65 * g.WarpSize }},
		{"too many FUs", func(g *GPU) { g.FUsPerCore = 64 }},
		{"zero SFUs", func(g *GPU) { g.SFUsPerCore = 0 }},
		{"zero schedulers", func(g *GPU) { g.Schedulers = 0 }},
		{"scoreboard no entries", func(g *GPU) { g.HasScoreboard = true; g.ScoreboardEntries = 0 }},
		{"no regs", func(g *GPU) { g.RegsPerCore = 0 }},
		{"no smem banks", func(g *GPU) { g.SMemBanks = 0 }},
		{"L2 missing geometry", func(g *GPU) { g.L2KB = 128; g.L2LineB = 0 }},
		{"no const cache", func(g *GPU) { g.ConstCacheKB = 0 }},
		{"no channels", func(g *GPU) { g.MemChannels = 0 }},
		{"no dram latency", func(g *GPU) { g.DRAMLatencyCore = 0 }},
		{"no data rate", func(g *GPU) { g.MemDataRateGbps = 0 }},
		{"no alu latency", func(g *GPU) { g.ALULatency = 0 }},
		{"no pcie", func(g *GPU) { g.PCIeLanes = 0 }},
		{"no int energy", func(g *GPU) { g.Power.IntOpPJ = 0 }},
		{"zero dyn scale", func(g *GPU) { g.Power.DynScaleFactor = 0 }},
		{"bad gating", func(g *GPU) { g.Power.IdleGatingFraction = 2 }},
	}
	for _, c := range cases {
		g := GT240()
		c.break_(g)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestDerivedQuantities(t *testing.T) {
	g := GT240()
	// 128-bit bus at 3.4 Gbps/pin = 54.4 GB/s.
	if bw := g.MemBandwidthGBs(); bw < 54 || bw > 55 {
		t.Errorf("GT240 bandwidth %v GB/s, want ~54.4", bw)
	}
	if g.GDDRChips() != 4 {
		t.Errorf("GT240 chips = %d, want 4", g.GDDRChips())
	}
	g.Power.GDDRChipsOverride = 8
	if g.GDDRChips() != 8 {
		t.Error("GDDR chip override ignored")
	}
	g2 := GTX580()
	if bw := g2.MemBandwidthGBs(); bw < 190 || bw > 195 {
		t.Errorf("GTX580 bandwidth %v GB/s, want ~192", bw)
	}
}

func TestTimingKeyIgnoresPowerSideParams(t *testing.T) {
	base := GT240().TimingKey()
	// Every mutation here is power/tech/presentation-side: the performance
	// simulator never reads these fields, so the timing key must not move.
	powerSide := []struct {
		name   string
		change func(*GPU)
	}{
		{"name", func(g *GPU) { g.Name = "GT240@28nm" }},
		{"process node", func(g *GPU) { g.ProcessNM = 28 }},
		{"uncore clock", func(g *GPU) { g.UncoreClockMHz = 400 }},
		{"memory technology label", func(g *GPU) { g.MemType = "ddr3" }},
		{"pcie lanes", func(g *GPU) { g.PCIeLanes = 8 }},
		{"dense clock", func(g *GPU) { g.DenseClock = true }},
		{"cache knob", func(g *GPU) { g.DisableSimCache = true }},
		{"fp energy", func(g *GPU) { g.Power.FPOpPJ *= 2 }},
		{"base power", func(g *GPU) { g.Power.ClusterBaseW *= 3 }},
		{"dyn scale", func(g *GPU) { g.Power.DynScaleFactor = 0.5 }},
		{"leakage temp", func(g *GPU) { g.Power.LeakageTempFactor = 1.4 }},
		{"gddr chips", func(g *GPU) { g.Power.GDDRChipsOverride = 8 }},
	}
	for _, c := range powerSide {
		g := GT240()
		c.change(g)
		if g.TimingKey() != base {
			t.Errorf("%s: power-side change moved the timing key", c.name)
		}
	}
}

func TestTimingKeySeesTimingParams(t *testing.T) {
	base := GT240().TimingKey()
	seen := map[[32]byte]string{base: "base"}
	// Every mutation here changes what the simulator does; each must yield
	// a key distinct from the base AND from all the others.
	timingSide := []struct {
		name   string
		change func(*GPU)
	}{
		{"core clock", func(g *GPU) { g.CoreClockMHz *= 0.8 }},
		{"mem data rate", func(g *GPU) { g.MemDataRateGbps = 2.0 }},
		{"clusters", func(g *GPU) { g.Clusters = 2 }},
		{"cores per cluster", func(g *GPU) { g.CoresPerCluster = 2 }},
		{"warp size", func(g *GPU) { g.WarpSize = 16 }},
		{"max warps", func(g *GPU) { g.MaxWarpsPerCore = 48 }},
		{"regs per core", func(g *GPU) { g.RegsPerCore *= 2 }},
		{"schedulers", func(g *GPU) { g.Schedulers = 2 }},
		{"scheduler policy", func(g *GPU) { g.SchedulerPolicy = "gto" }},
		{"active set", func(g *GPU) { g.ActiveWarpsPerSched = 4 }},
		{"fus", func(g *GPU) { g.FUsPerCore = 16 }},
		{"sfus", func(g *GPU) { g.SFUsPerCore = 4 }},
		{"scoreboard", func(g *GPU) { g.HasScoreboard = true; g.ScoreboardEntries = 6 }},
		{"alu latency", func(g *GPU) { g.ALULatency++ }},
		{"smem geometry", func(g *GPU) { g.SMemBanks = 32 }},
		{"l1", func(g *GPU) { g.L1KB = 16; g.L1LineB = 128; g.L1Assoc = 4 }},
		{"const cache", func(g *GPU) { g.ConstCacheKB *= 2 }},
		{"l2", func(g *GPU) { g.L2KB = 256; g.L2LineB = 128; g.L2Assoc = 8 }},
		{"mem channels", func(g *GPU) { g.MemChannels = 8 }},
		{"dram banks", func(g *GPU) { g.DRAMBanks = 8 }},
		{"dram latency", func(g *GPU) { g.DRAMLatencyCore += 10 }},
		{"dram trcd", func(g *GPU) { g.DRAMTRCDNS += 1 }},
	}
	for _, c := range timingSide {
		g := GT240()
		c.change(g)
		k := g.TimingKey()
		if prev, dup := seen[k]; dup {
			t.Errorf("%s: timing change collided with %q", c.name, prev)
		}
		seen[k] = c.name
	}
}

func TestTimingKeyDistinguishesPresets(t *testing.T) {
	if GT240().TimingKey() == GTX580().TimingKey() {
		t.Fatal("GT240 and GTX580 share a timing key")
	}
}
