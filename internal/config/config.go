// Package config defines the GPU architecture description consumed by both
// the performance simulator and the power model. Following the paper ("the
// key parameters of the simulated architecture are supplied using a simple
// XML-based interface"), configurations serialize to and from XML, and the
// two validation targets of the paper — the GeForce GT240 (GT215 chip) and
// the GeForce GTX580 (GF110 chip) — ship as presets matching Table II.
package config

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/xml"
	"fmt"
	"io"
	"math"
	"os"
)

// GPU is a complete architecture configuration.
type GPU struct {
	XMLName xml.Name `xml:"gpu"`

	Name      string  `xml:"name,attr"`
	ProcessNM float64 `xml:"processNM"`

	// Clock domains. CoreClockMHz is the shader (hot) clock; UncoreClockMHz
	// drives the NoC, L2 and memory controller front-end; the DRAM interface
	// runs at MemDataRateGbps per pin.
	CoreClockMHz    float64 `xml:"coreClockMHz"`
	UncoreClockMHz  float64 `xml:"uncoreClockMHz"`
	MemDataRateGbps float64 `xml:"memDataRateGbps"`

	// Organization.
	Clusters          int `xml:"clusters"`
	CoresPerCluster   int `xml:"coresPerCluster"`
	WarpSize          int `xml:"warpSize"`
	MaxWarpsPerCore   int `xml:"maxWarpsPerCore"`
	MaxBlocksPerCore  int `xml:"maxBlocksPerCore"`
	MaxThreadsPerCore int `xml:"maxThreadsPerCore"`
	RegsPerCore       int `xml:"regsPerCore"` // 32-bit registers
	Schedulers        int `xml:"schedulers"`  // warp issue schedulers per core
	// SchedulerPolicy selects the warp scheduling policy: "rr" (rotating
	// priority / round-robin, the paper's baseline), "gto" (greedy then
	// oldest), or "twolevel" (Narasiman et al., the extension the paper's
	// conclusion proposes evaluating "from a power perspective"). Empty
	// means "rr".
	SchedulerPolicy string `xml:"schedulerPolicy"`
	// ActiveWarpsPerSched is the active-set size of the two-level scheduler
	// (ignored by other policies; default 8).
	ActiveWarpsPerSched int `xml:"activeWarpsPerSched"`
	FUsPerCore          int `xml:"fusPerCore"` // fused INT/FP SIMD lanes
	SFUsPerCore         int `xml:"sfusPerCore"`

	// Scoreboarding: when false the core uses blocking barrel issue (one
	// outstanding instruction per warp), as Table II indicates for GT240.
	HasScoreboard     bool `xml:"hasScoreboard"`
	ScoreboardEntries int  `xml:"scoreboardEntries"`

	// Pipeline latencies in core cycles.
	ALULatency  int `xml:"aluLatency"`
	SFULatency  int `xml:"sfuLatency"`
	SMemLatency int `xml:"smemLatency"`

	// Core memory structures.
	SharedMemPerCoreKB int `xml:"sharedMemPerCoreKB"`
	SMemBanks          int `xml:"smemBanks"`
	L1KB               int `xml:"l1KB"` // 0 = no L1 data cache (pre-Fermi)
	L1LineB            int `xml:"l1LineB"`
	L1Assoc            int `xml:"l1Assoc"`
	ConstCacheKB       int `xml:"constCacheKB"`
	ConstLineB         int `xml:"constLineB"`
	// Texture cache (0 = absent; the paper's published model omits it and
	// lists it as future work — enabling it here is that future variant).
	TexCacheKB int `xml:"texCacheKB"`
	TexLineB   int `xml:"texLineB"`

	// L2 (shared, connected through the NoC). L2KB == 0 means no L2.
	L2KB    int `xml:"l2KB"`
	L2LineB int `xml:"l2LineB"`
	L2Assoc int `xml:"l2Assoc"`

	// DRAM.
	// MemType selects the DRAM technology: "gddr5" (default) or "ddr3"
	// ("the current generation of GPUs such as Fermi use either DDR3 SDRAM
	// or GDDR5 SGRAM chips").
	MemType         string  `xml:"memType"`
	MemChannels     int     `xml:"memChannels"`     // 32-bit GDDR5 channels
	DRAMBanks       int     `xml:"dramBanks"`       // banks per channel
	DRAMRowBytes    int     `xml:"dramRowBytes"`    // row-buffer size
	DRAMLatencyCore int     `xml:"dramLatencyCore"` // base access latency, core cycles
	DRAMTRCDNS      float64 `xml:"dramTRCDNS"`
	DRAMTRPNS       float64 `xml:"dramTRPNS"`

	// PCIe interface.
	PCIeLanes int `xml:"pcieLanes"`

	// DenseClock disables the simulator's event-driven fast-forward and
	// forces the classic tick-every-cycle clock loop. The two modes are
	// bit-identical in every activity counter and in the functional memory
	// image (asserted by the sim package's equivalence tests); dense mode
	// exists for debugging and for benchmarking the fast-forward speedup.
	DenseClock bool `xml:"denseClock,omitempty"`

	// DisableSimCache forces every launch through a fresh timing simulation
	// instead of the process-wide content-addressed result cache
	// (internal/simcache). The cached and fresh paths are bit-identical in
	// every reported metric (enforced by the core package's equivalence
	// tests); the knob exists for debugging and for benchmarking the cache.
	// The GPUSIMPOW_DISABLE_SIM_CACHE environment variable has the same
	// effect process-wide.
	DisableSimCache bool `xml:"disableSimCache,omitempty"`

	Power PowerCal `xml:"power"`
}

// ---------------------------------------------------------------------------
// Timing-key vs. power-parameter partition.
//
// The cycle-level simulator (internal/sim) reads only a subset of the
// configuration; every other field affects power evaluation alone. The
// partition is explicit here so the simulation-result cache
// (internal/simcache) can key timing results by exactly the fields that
// determine them: two configurations differing only in power-side
// parameters — the process node, the uncore clock, the memory technology
// label, the PCIe width, the whole PowerCal block, the name — share
// cycle-accurate results, which is what lets the DVFS, process-node and
// static-extrapolation sweeps simulate once and evaluate many times.
//
// CoreClockMHz and MemDataRateGbps ARE timing-relevant: DRAM nanosecond
// timings and per-burst transfer times are converted into core cycles with
// them. DenseClock and DisableSimCache are excluded deliberately: the
// event-driven and dense clock loops are bit-identical (enforced by the sim
// package's equivalence tests), and the cache knob must not change what is
// simulated.
//
// The partition is machine-checked twice: gpowlint's timingpartition pass
// cross-references the fields internal/sim and internal/core actually read
// against this encoding and the explicit lists in partition.go, and
// TestTimingPartitionExhaustive perturbs every field asserting the key
// moves exactly for the encoded ones. See docs/LINTS.md.
// ---------------------------------------------------------------------------

// TimingKey returns a stable content hash over the timing-relevant fields:
// configurations with equal keys produce bit-identical simulation results
// for any kernel. Adding a field the simulator reads requires extending
// appendTimingFields (and bumping timingKeyVersion).
func (g *GPU) TimingKey() [32]byte {
	return sha256.Sum256(g.appendTimingFields(make([]byte, 0, 512)))
}

// timingKeyVersion invalidates all keys when the encoding (or the set of
// timing-relevant fields) changes. v2: dropped MaxThreadsPerCore — it is
// validation-derived (Validate pins it to MaxWarpsPerCore*WarpSize) and no
// timing-side code reads it, so keying it was dead material.
const timingKeyVersion = 2

// appendTimingFields appends a fixed-order binary encoding of every field
// the performance simulator reads. Field order is load-bearing; integers are
// encoded as little-endian uint64, floats as their IEEE-754 bit patterns,
// strings with a length prefix.
func (g *GPU) appendTimingFields(b []byte) []byte {
	u := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	i := func(v int) { u(uint64(int64(v))) }
	f := func(v float64) { u(math.Float64bits(v)) }
	s := func(v string) { i(len(v)); b = append(b, v...) }
	o := func(v bool) {
		if v {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}

	u(timingKeyVersion)
	// Clocks and DRAM data rate (converted into core cycles by the DRAM
	// timing model).
	f(g.CoreClockMHz)
	f(g.MemDataRateGbps)
	// Organization.
	i(g.Clusters)
	i(g.CoresPerCluster)
	i(g.WarpSize)
	i(g.MaxWarpsPerCore)
	i(g.MaxBlocksPerCore)
	i(g.RegsPerCore)
	i(g.Schedulers)
	s(g.SchedulerPolicy)
	i(g.ActiveWarpsPerSched)
	i(g.FUsPerCore)
	i(g.SFUsPerCore)
	o(g.HasScoreboard)
	i(g.ScoreboardEntries)
	// Pipeline latencies.
	i(g.ALULatency)
	i(g.SFULatency)
	i(g.SMemLatency)
	// Core memory structures.
	i(g.SharedMemPerCoreKB)
	i(g.SMemBanks)
	i(g.L1KB)
	i(g.L1LineB)
	i(g.L1Assoc)
	i(g.ConstCacheKB)
	i(g.ConstLineB)
	i(g.TexCacheKB)
	i(g.TexLineB)
	// L2.
	i(g.L2KB)
	i(g.L2LineB)
	i(g.L2Assoc)
	// DRAM geometry and timing.
	i(g.MemChannels)
	i(g.DRAMBanks)
	i(g.DRAMRowBytes)
	i(g.DRAMLatencyCore)
	f(g.DRAMTRCDNS)
	f(g.DRAMTRPNS)
	return b
}

// PowerCal holds the empirical power-model anchors (paper §III-D and Fig. 4).
// Energies are specified at the configuration's own process node.
type PowerCal struct {
	// Per-lane per-instruction energies in picojoules (measured: INT ~40 pJ,
	// FP ~75 pJ on GT240 at 40 nm; NVIDIA reports 50 pJ/FP op).
	IntOpPJ float64 `xml:"intOpPJ"`
	FPOpPJ  float64 `xml:"fpOpPJ"`
	SFUOpPJ float64 `xml:"sfuOpPJ"`
	// Energy per generated address in the AGU (per sub-AGU operation).
	AGUOpPJ float64 `xml:"aguOpPJ"`

	// Empirical base power (paper Fig. 4): activating the global work
	// scheduler costs GlobalSchedW; each activated cluster costs
	// ClusterBaseW; each active core adds CoreBaseDynW of unattributable
	// dynamic power.
	GlobalSchedW float64 `xml:"globalSchedW"`
	ClusterBaseW float64 `xml:"clusterBaseW"`
	CoreBaseDynW float64 `xml:"coreBaseDynW"`

	// Undifferentiated core: per-core static power and area of components
	// with no public documentation (ROPs, video decode, texture units...).
	UndiffCoreStaticW  float64 `xml:"undiffCoreStaticW"`
	UndiffCoreAreaMM2  float64 `xml:"undiffCoreAreaMM2"`
	UncoreStaticW      float64 `xml:"uncoreStaticW"`     // fixed uncore leakage (PLLs, IO)
	UncoreAreaMM2      float64 `xml:"uncoreAreaMM2"`     // pads, PHYs, display
	NoCStaticW         float64 `xml:"nocStaticW"`        // NoC leakage anchor (McPAT-style)
	MCStaticW          float64 `xml:"mcStaticW"`         // memory controller leakage anchor
	PCIeIdleW          float64 `xml:"pcieIdleW"`         // PCIe controller leakage
	PCIeActiveW        float64 `xml:"pcieActiveW"`       // PCIe PHY dynamic while the GPU is active
	PCIeDynPerKBJ      float64 `xml:"pcieDynPerKBJ"`     // energy per KB transferred
	NoCFlitPJ          float64 `xml:"nocFlitPJ"`         // energy per flit-hop
	MCRequestPJ        float64 `xml:"mcRequestPJ"`       // controller energy per request
	DecodePJ           float64 `xml:"decodePJ"`          // per decoded instruction
	FPUAreaMM2         float64 `xml:"fpuAreaMM2"`        // Galal & Horowitz derived, per lane
	SFUAreaMM2         float64 `xml:"sfuAreaMM2"`        // De Caro et al. derived, per SFU
	SFUStaticWPerUnit  float64 `xml:"sfuStaticWPerUnit"` // De Caro et al. leakage
	GDDRChipsOverride  int     `xml:"gddrChipsOverride"` // 0 = MemChannels
	TempCelsius        float64 `xml:"tempCelsius"`
	LeakageTempFactor  float64 `xml:"leakageTempFactor"`  // multiplier applied to all leakage
	DynScaleFactor     float64 `xml:"dynScaleFactor"`     // global dynamic calibration (1.0 default)
	IdleGatingFraction float64 `xml:"idleGatingFraction"` // fraction of static gated off when idle
}

// NumCores returns the total core (SM) count.
func (g *GPU) NumCores() int { return g.Clusters * g.CoresPerCluster }

// CoreClockHz returns the shader clock in hertz.
func (g *GPU) CoreClockHz() float64 { return g.CoreClockMHz * 1e6 }

// UncoreRatio returns core-clock cycles per uncore cycle.
func (g *GPU) UncoreRatio() float64 { return g.CoreClockMHz / g.UncoreClockMHz }

// MemBandwidthGBs returns the peak DRAM bandwidth in GB/s.
func (g *GPU) MemBandwidthGBs() float64 {
	return g.MemDataRateGbps * float64(g.MemChannels) * 32 / 8
}

// GDDRChips returns the number of DRAM devices on the board (one x32 device
// per 32-bit channel unless overridden).
func (g *GPU) GDDRChips() int {
	if g.Power.GDDRChipsOverride > 0 {
		return g.Power.GDDRChipsOverride
	}
	return g.MemChannels
}

// Validate checks internal consistency.
func (g *GPU) Validate() error {
	switch {
	case g.Name == "":
		return fmt.Errorf("config: missing name")
	case g.ProcessNM <= 0:
		return fmt.Errorf("config %s: processNM must be positive", g.Name)
	case g.CoreClockMHz <= 0 || g.UncoreClockMHz <= 0:
		return fmt.Errorf("config %s: clocks must be positive", g.Name)
	case g.CoreClockMHz < g.UncoreClockMHz:
		return fmt.Errorf("config %s: shader clock below uncore clock", g.Name)
	case g.Clusters <= 0 || g.CoresPerCluster <= 0:
		return fmt.Errorf("config %s: need positive cluster/core counts", g.Name)
	case g.WarpSize <= 0 || g.WarpSize&(g.WarpSize-1) != 0:
		return fmt.Errorf("config %s: warp size must be a positive power of two", g.Name)
	case g.MaxWarpsPerCore <= 0:
		return fmt.Errorf("config %s: need positive warps per core", g.Name)
	case g.MaxWarpsPerCore > 64:
		// The simulator keeps per-core warp status in 64-bit masks.
		return fmt.Errorf("config %s: maxWarpsPerCore %d exceeds the simulator's limit of 64", g.Name, g.MaxWarpsPerCore)
	case g.MaxThreadsPerCore < g.WarpSize:
		return fmt.Errorf("config %s: maxThreadsPerCore below warp size", g.Name)
	case g.MaxWarpsPerCore*g.WarpSize != g.MaxThreadsPerCore:
		return fmt.Errorf("config %s: maxThreadsPerCore (%d) != maxWarps*warpSize (%d)",
			g.Name, g.MaxThreadsPerCore, g.MaxWarpsPerCore*g.WarpSize)
	case g.FUsPerCore <= 0 || g.FUsPerCore > g.WarpSize:
		return fmt.Errorf("config %s: FUs per core must be in (0, warpSize]", g.Name)
	case g.SFUsPerCore <= 0:
		return fmt.Errorf("config %s: need at least one SFU", g.Name)
	case g.Schedulers <= 0:
		return fmt.Errorf("config %s: need at least one scheduler", g.Name)
	case g.SchedulerPolicy != "" && g.SchedulerPolicy != "rr" &&
		g.SchedulerPolicy != "gto" && g.SchedulerPolicy != "twolevel":
		return fmt.Errorf("config %s: unknown scheduler policy %q", g.Name, g.SchedulerPolicy)
	case g.HasScoreboard && g.ScoreboardEntries <= 0:
		return fmt.Errorf("config %s: scoreboard enabled with no entries", g.Name)
	case g.RegsPerCore <= 0:
		return fmt.Errorf("config %s: need positive register file", g.Name)
	case g.SharedMemPerCoreKB < 0 || g.SMemBanks <= 0:
		return fmt.Errorf("config %s: bad shared memory geometry", g.Name)
	case g.L1KB > 0 && (g.L1LineB <= 0 || g.L1Assoc <= 0):
		return fmt.Errorf("config %s: L1 present but line/assoc unset", g.Name)
	case g.L2KB > 0 && (g.L2LineB <= 0 || g.L2Assoc <= 0):
		return fmt.Errorf("config %s: L2 present but line/assoc unset", g.Name)
	case g.ConstCacheKB <= 0 || g.ConstLineB <= 0:
		return fmt.Errorf("config %s: constant cache required", g.Name)
	case g.TexCacheKB > 0 && g.TexLineB <= 0:
		return fmt.Errorf("config %s: texture cache present but line size unset", g.Name)
	case g.MemChannels <= 0 || g.DRAMBanks <= 0 || g.DRAMRowBytes <= 0:
		return fmt.Errorf("config %s: bad DRAM geometry", g.Name)
	case g.DRAMLatencyCore <= 0:
		return fmt.Errorf("config %s: DRAM latency must be positive", g.Name)
	case g.MemDataRateGbps <= 0:
		return fmt.Errorf("config %s: memory data rate must be positive", g.Name)
	case g.MemType != "" && g.MemType != "gddr5" && g.MemType != "ddr3":
		return fmt.Errorf("config %s: unknown memory type %q", g.Name, g.MemType)
	case g.ALULatency <= 0 || g.SFULatency <= 0 || g.SMemLatency <= 0:
		return fmt.Errorf("config %s: pipeline latencies must be positive", g.Name)
	case g.PCIeLanes <= 0:
		return fmt.Errorf("config %s: PCIe lanes must be positive", g.Name)
	}
	p := g.Power
	if p.IntOpPJ <= 0 || p.FPOpPJ <= 0 || p.SFUOpPJ <= 0 {
		return fmt.Errorf("config %s: execution-unit energies must be positive", g.Name)
	}
	if p.DynScaleFactor <= 0 {
		return fmt.Errorf("config %s: dynScaleFactor must be positive", g.Name)
	}
	if p.IdleGatingFraction < 0 || p.IdleGatingFraction > 1 {
		return fmt.Errorf("config %s: idleGatingFraction must be in [0,1]", g.Name)
	}
	return nil
}

// WriteXML serializes the configuration.
func (g *GPU) WriteXML(w io.Writer) error {
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(g); err != nil {
		return fmt.Errorf("config: encoding %s: %w", g.Name, err)
	}
	return enc.Close()
}

// ReadXML parses a configuration and validates it.
func ReadXML(r io.Reader) (*GPU, error) {
	var g GPU
	if err := xml.NewDecoder(r).Decode(&g); err != nil {
		return nil, fmt.Errorf("config: decoding: %w", err)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &g, nil
}

// LoadFile reads a configuration from an XML file.
func LoadFile(path string) (*GPU, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	defer f.Close()
	return ReadXML(f)
}

// SaveFile writes the configuration to an XML file.
func (g *GPU) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("config: %w", err)
	}
	if err := g.WriteXML(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
