// Package sim implements the cycle-level GPGPU performance simulator — the
// GPGPU-Sim analog of the GPUSimPow framework. It executes kernels written in
// the internal/kernel ISA on a configurable SIMT GPU (warp control units,
// operand-collector register files, SIMD pipelines, a coalescing load/store
// unit, banked shared memory, caches, a NoC, memory controllers and GDDR5
// timing) and produces the per-component activity counts the power model
// turns into runtime dynamic power.
package sim

// Activity is the complete set of component activity counters produced by
// one kernel simulation. Each counter corresponds to a component model in
// internal/power; the mapping is: runtime dynamic energy = count x
// energy-per-event, summed over components, divided by kernel runtime.
type Activity struct {
	// Cycles is the kernel duration in core (shader) clock cycles.
	Cycles uint64

	// --- Warp control unit (per-core front end, summed over cores) ---
	ICacheReads  uint64 // instruction cache accesses
	Decodes      uint64 // decoded instructions
	WSTReads     uint64 // warp status table reads
	WSTWrites    uint64 // warp status table writes
	IBufReads    uint64 // instruction buffer reads (at issue)
	IBufWrites   uint64 // instruction buffer fills (at fetch)
	SchedArbs    uint64 // warp scheduler arbitrations (priority encoder)
	SBSearches   uint64 // scoreboard dependency searches
	SBWrites     uint64 // scoreboard allocate/release writes
	ReconvReads  uint64 // reconvergence stack top reads
	ReconvPushes uint64 // tokens pushed on divergence
	ReconvPops   uint64 // tokens popped on reconvergence

	// --- Register file and operand collectors ---
	RFBankReads  uint64 // warp-wide register bank row reads
	RFBankWrites uint64
	OCWrites     uint64 // operand collector entry fills
	OperandXbar  uint64 // crossbar transfers bank -> collector

	// --- Execution units (thread = lane-weighted, warp = per instruction) ---
	IssuedInstrs    uint64
	IntWarpInstrs   uint64
	FPWarpInstrs    uint64
	SFUWarpInstrs   uint64
	MemWarpInstrs   uint64
	CtrlWarpInstrs  uint64
	IntThreadInstrs uint64
	FPThreadInstrs  uint64
	SFUThreadInstrs uint64

	// --- Load/store unit ---
	AGUAddresses     uint64 // per-lane addresses generated
	CoalescerQueries uint64 // memory instructions analysed
	CoalescedReqs    uint64 // segment requests after coalescing
	PRTWrites        uint64 // pending-request-table updates
	SMemAccesses     uint64 // shared-memory bank accesses
	SMemConflicts    uint64 // extra serialization cycles from conflicts
	L1Reads          uint64
	L1Writes         uint64
	L1Misses         uint64
	ConstReads       uint64
	ConstMisses      uint64
	TexReads         uint64 // texture cache probes (per distinct line)
	TexMisses        uint64
	L2Reads          uint64
	L2Writes         uint64
	L2Misses         uint64

	// --- Interconnect, memory controller, DRAM ---
	NoCFlits        uint64
	MCRequests      uint64
	DRAMActivates   uint64
	DRAMReadBursts  uint64 // 32-byte bursts
	DRAMWriteBursts uint64
	DRAMBusyCycles  uint64 // summed over channels, core cycles

	// --- Host interface ---
	PCIeBytes uint64 // kernel launch + parameter traffic

	// --- Occupancy (for base power and static gating) ---
	CoreBusyCycles     []uint64 // per core: cycles with resident warps
	ClusterBusyCycles  []uint64 // per cluster: cycles with any busy core
	GlobalSchedCycles  uint64   // cycles the global block scheduler is active
	ResidentWarpCycles uint64   // integral of resident warps over cycles, all cores
	BlocksLaunched     uint64
	WarpsLaunched      uint64
	ThreadsLaunched    uint64
}

// Result bundles the activity with headline performance numbers.
type Result struct {
	Activity Activity
	// Seconds is the kernel runtime.
	Seconds float64
	// WarpInstrs and ThreadInstrs summarise executed work.
	WarpInstrs, ThreadInstrs uint64
	// IPC is warp instructions per core cycle, summed over the chip.
	IPC float64
	// L1HitRate, L2HitRate and ConstHitRate are overall hit fractions
	// (1.0 when the structure is absent or unused).
	L1HitRate, L2HitRate, ConstHitRate float64
	// OccupancyPct is resident warps / max warps averaged over busy cores.
	OccupancyPct float64
}

// Clone returns a deep copy of the result (the per-core and per-cluster
// activity slices are copied), so the simulation-result cache can hand out
// snapshots without any caller aliasing the cached master copy.
func (r *Result) Clone() *Result {
	c := *r
	c.Activity.CoreBusyCycles = append([]uint64(nil), r.Activity.CoreBusyCycles...)
	c.Activity.ClusterBusyCycles = append([]uint64(nil), r.Activity.ClusterBusyCycles...)
	return &c
}
