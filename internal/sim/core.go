package sim

import (
	"fmt"
	"math/bits"

	"gpusimpow/internal/config"
	"gpusimpow/internal/kernel"
	"gpusimpow/internal/sim/cache"
)

// wbEvent is a scheduled writeback: when the pipeline or memory system
// delivers the result of an in-flight instruction back to the warp.
type wbEvent struct {
	cycle uint64
	slot  int
	reg   uint8
	hasWB bool // writes a register (counts an RF bank write)
	isMem bool // memory instruction (two-level scheduler demotion state)
	lanes int
}

// wbHeap is a min-heap of writeback events ordered by cycle. The sift
// operations are implemented directly (rather than through container/heap)
// so pushes and pops stay free of interface boxing on the issue hot path.
type wbHeap []wbEvent

func (h *wbHeap) push(ev wbEvent) {
	*h = append(*h, ev)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if q[parent].cycle <= q[i].cycle {
			break
		}
		q[parent], q[i] = q[i], q[parent]
		i = parent
	}
}

func (h *wbHeap) pop() wbEvent {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	*h = q
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && q[l].cycle < q[min].cycle {
			min = l
		}
		if r < n && q[r].cycle < q[min].cycle {
			min = r
		}
		if min == i {
			break
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
	return top
}

// blockRt is a thread block resident on a core.
type blockRt struct {
	env         *kernel.Env
	slots       []int // warp slot indices
	total       int   // warps in the block
	finished    int
	atBarrier   int
	outstanding int // in-flight instructions across the block's warps
}

// warpSlot is the per-warp control state of the warp control unit.
type warpSlot struct {
	active bool
	w      *kernel.Warp
	block  *blockRt

	pendingN    int
	pendingRegs []uint8 // scoreboard: destination registers in flight

	// memPending counts outstanding memory instructions (two-level
	// scheduler demotes warps waiting on memory; coreState.memWait mirrors
	// memPending > 0).
	memPending int
}

// coreState is one SIMT core (SM): warps, schedulers, pipelines, L1 and
// constant caches.
type coreState struct {
	id, cluster int
	cfg         *config.GPU

	slots  []warpSlot
	blocks []*blockRt

	// Resource accounting for the block dispatcher.
	freeWarps int
	freeSMem  int
	freeRegs  int

	// Pipeline availability (cycle when the unit accepts the next warp).
	spFree   []uint64 // per scheduler
	sfuFree  uint64
	ldstFree uint64

	fetchRR    int
	issueRR    []int
	lastIssued []int // per scheduler: slot that issued last (GTO greediness)
	// byAge lists the occupied slots in placement order, oldest first: the
	// age order of the GTO and two-level policies.
	byAge []int

	// Warp-status bitmasks (config.Validate caps MaxWarpsPerCore at 64, so
	// one word covers every slot): bit i of fetchable is set iff slot i is
	// active with no buffered instruction and neither finished nor at a
	// barrier; issuable is the same predicate with a buffered instruction.
	// schedMask[s] selects scheduler s's congruence class (slot i belongs to
	// scheduler i mod Schedulers).
	fetchable uint64
	issuable  uint64
	schedMask []uint64

	// Issue-side bitmasks, meaningful on issuable slots only and kept by
	// refresh/unbuffer: ready holds the slots whose buffered instruction is
	// hazard-free; aluMask, sfuMask and memMask hold the slots whose buffered
	// instruction needs the scheduler's SP pipeline, the SFU or the LDST
	// unit (a control instruction sets none). fetchedNow holds the slots
	// fetched this cycle, which may not issue before the next.
	ready      uint64
	aluMask    uint64
	sfuMask    uint64
	memMask    uint64
	fetchedNow uint64
	// memWait holds the slots with a memory instruction in flight.
	memWait uint64

	dec []kernel.DInstr // the running program's decoded instruction table

	// Retired warps, block contexts and block runtimes recycle through
	// per-core LIFO pools, so steady-state dispatch allocates nothing but
	// one Env per block.
	warpPool  []*kernel.Warp
	ctxPool   []*kernel.BlockCtx
	blockPool []*blockRt

	events wbHeap

	l1     *cache.Cache // nil when absent
	ccache *cache.Cache
	tcache *cache.Cache // texture cache; nil when absent

	// Reusable per-core scratch buffers: these keep the fetch/issue/memory
	// hot path free of per-cycle allocations.
	segBuf   []uint32 // coalesced segment bases
	addrBuf  []uint32 // distinct constant addresses
	lineBuf  []uint32 // distinct texture lines
	tlActive []int    // two-level scheduler active set
}

func newCoreState(id int, cfg *config.GPU, dec []kernel.DInstr) (*coreState, error) {
	c := &coreState{
		id:        id,
		cluster:   id / cfg.CoresPerCluster,
		cfg:       cfg,
		dec:       dec,
		slots:     make([]warpSlot, cfg.MaxWarpsPerCore),
		freeWarps: cfg.MaxWarpsPerCore,
		freeSMem:  cfg.SharedMemPerCoreKB * 1024,
		freeRegs:  cfg.RegsPerCore,
		spFree:    make([]uint64, cfg.Schedulers),
		issueRR:   make([]int, cfg.Schedulers),
		byAge:     make([]int, 0, cfg.MaxWarpsPerCore),
	}
	c.lastIssued = make([]int, cfg.Schedulers)
	for i := range c.lastIssued {
		c.lastIssued[i] = -1
	}
	c.schedMask = make([]uint64, cfg.Schedulers)
	for i := 0; i < cfg.MaxWarpsPerCore; i++ {
		c.schedMask[i%cfg.Schedulers] |= 1 << i
	}
	if cfg.L1KB > 0 {
		l1, err := cache.New(cache.Config{
			SizeBytes: cfg.L1KB * 1024, LineBytes: cfg.L1LineB,
			Assoc: cfg.L1Assoc, Policy: cache.WriteThrough,
		})
		if err != nil {
			return nil, fmt.Errorf("sim: core %d L1: %w", id, err)
		}
		c.l1 = l1
	}
	cc, err := cache.New(cache.Config{
		SizeBytes: cfg.ConstCacheKB * 1024, LineBytes: cfg.ConstLineB,
		Assoc: 4, Policy: cache.WriteThrough,
	})
	if err != nil {
		return nil, fmt.Errorf("sim: core %d const cache: %w", id, err)
	}
	c.ccache = cc
	if cfg.TexCacheKB > 0 {
		tc, err := cache.New(cache.Config{
			SizeBytes: cfg.TexCacheKB * 1024, LineBytes: cfg.TexLineB,
			Assoc: 4, Policy: cache.WriteThrough,
		})
		if err != nil {
			return nil, fmt.Errorf("sim: core %d texture cache: %w", id, err)
		}
		c.tcache = tc
	}
	return c, nil
}

// residentWarps reports whether the core has any work.
func (c *coreState) residentWarps() bool { return c.freeWarps < len(c.slots) }

// nextEventCycle returns the cycle of the core's earliest pending writeback,
// or the maximum uint64 when none is in flight.
func (c *coreState) nextEventCycle() uint64 {
	if len(c.events) == 0 {
		return ^uint64(0)
	}
	return c.events[0].cycle
}

// residentBlocks returns the number of blocks on the core.
func (c *coreState) residentBlocks() int { return len(c.blocks) }

// canAccept reports whether a block with the given demands fits.
func (c *coreState) canAccept(warps, smemBytes, regs int) bool {
	return len(c.blocks) < c.cfg.MaxBlocksPerCore &&
		c.freeWarps >= warps && c.freeSMem >= smemBytes && c.freeRegs >= regs
}

// takeWarp pops a pooled warp (resetting it for the new block) or builds a
// fresh one when the pool is dry.
func (c *coreState) takeWarp(idInBlock, lanes, numRegs int) *kernel.Warp {
	if n := len(c.warpPool); n > 0 {
		w := c.warpPool[n-1]
		c.warpPool = c.warpPool[:n-1]
		w.Reset(idInBlock, lanes, numRegs)
		return w
	}
	return kernel.NewWarp(idInBlock, lanes, numRegs)
}

// takeBlock pops a pooled block runtime or builds a fresh one.
func (c *coreState) takeBlock(env *kernel.Env, total int) *blockRt {
	if n := len(c.blockPool); n > 0 {
		b := c.blockPool[n-1]
		c.blockPool = c.blockPool[:n-1]
		*b = blockRt{env: env, slots: b.slots[:0], total: total}
		return b
	}
	return &blockRt{env: env, total: total}
}

// takeBlockCtx pops a pooled block context (resetting it for the new
// block's coordinates) or builds a fresh one.
func (c *coreState) takeBlockCtx(l *kernel.Launch, cx, cy int) *kernel.BlockCtx {
	if n := len(c.ctxPool); n > 0 {
		bctx := c.ctxPool[n-1]
		c.ctxPool = c.ctxPool[:n-1]
		bctx.Reset(l, cx, cy)
		return bctx
	}
	return kernel.NewBlockCtx(l, cx, cy)
}

// place installs a block's warps into free slots.
func (c *coreState) place(l *kernel.Launch, env *kernel.Env, smemBytes, regs int, a *Activity) *blockRt {
	nw := l.WarpsPerBlock()
	threads := l.ThreadsPerBlock()
	b := c.takeBlock(env, nw)
	for i := 0; i < nw; i++ {
		lanes := kernel.WarpSize
		if rem := threads - i*kernel.WarpSize; rem < kernel.WarpSize {
			lanes = rem
		}
		slot := c.findFreeSlot()
		c.slots[slot] = warpSlot{
			active:      true,
			w:           c.takeWarp(i, lanes, l.Prog.NumRegs),
			block:       b,
			pendingRegs: c.slots[slot].pendingRegs[:0],
		}
		c.fetchable |= 1 << slot
		c.byAge = append(c.byAge, slot)
		b.slots = append(b.slots, slot)
		a.WSTWrites++ // warp status table entry initialised
		a.WarpsLaunched++
	}
	a.ThreadsLaunched += uint64(threads)
	c.freeWarps -= nw
	c.freeSMem -= smemBytes
	c.freeRegs -= regs
	c.blocks = append(c.blocks, b)
	return b
}

func (c *coreState) findFreeSlot() int {
	for i := range c.slots {
		if !c.slots[i].active {
			return i
		}
	}
	panic("sim: no free warp slot despite accounting")
}

// maybeReleaseBarrier releases a block's barrier once every live warp waits.
func (c *coreState) maybeReleaseBarrier(b *blockRt) {
	if b.atBarrier == 0 || b.atBarrier+b.finished < b.total {
		return
	}
	for _, slot := range b.slots {
		if c.slots[slot].active && c.slots[slot].w.AtBarrier {
			c.slots[slot].w.ReleaseBarrier()
			// A released warp was fetch-blocked by AtBarrier with an empty
			// instruction buffer; it becomes fetchable again.
			if !c.slots[slot].w.Finished {
				c.fetchable |= 1 << slot
			}
		}
	}
	b.atBarrier = 0
}

// retire frees a completed block's resources, returning its warps, block
// context and runtime to the core's pools. The slot's scoreboard backing
// array survives the reset (it is empty — the block had no outstanding
// instructions — but its capacity is reused by the next occupant).
func (c *coreState) retire(b *blockRt, smemBytes, regs int) {
	var gone uint64
	for _, s := range b.slots {
		c.warpPool = append(c.warpPool, c.slots[s].w)
		c.slots[s] = warpSlot{pendingRegs: c.slots[s].pendingRegs[:0]}
		gone |= 1 << s
	}
	c.fetchable &^= gone
	c.memWait &^= gone
	c.unbuffer(gone)
	kept := c.byAge[:0]
	for _, s := range c.byAge {
		if gone&(1<<s) == 0 {
			kept = append(kept, s)
		}
	}
	c.byAge = kept
	c.freeWarps += b.total
	c.freeSMem += smemBytes
	c.freeRegs += regs
	for i, bb := range c.blocks {
		if bb == b {
			c.blocks = append(c.blocks[:i], c.blocks[i+1:]...)
			break
		}
	}
	c.ctxPool = append(c.ctxPool, b.env.Block)
	b.env = nil
	c.blockPool = append(c.blockPool, b)
}

// drainEvents applies writebacks due at the current cycle and returns how
// many events it drained.
func (c *coreState) drainEvents(now uint64, a *Activity) int {
	drained := 0
	for len(c.events) > 0 && c.events[0].cycle <= now {
		ev := c.events.pop()
		drained++
		sl := &c.slots[ev.slot]
		if !sl.active {
			continue // block already retired (possible only after errors)
		}
		sl.pendingN--
		sl.block.outstanding--
		if ev.isMem && sl.memPending > 0 {
			sl.memPending--
			if sl.memPending == 0 {
				c.memWait &^= 1 << ev.slot
			}
		}
		if ev.hasWB {
			a.RFBankWrites++
			a.SBWrites++ // scoreboard entry release
			for i, r := range sl.pendingRegs {
				if r == ev.reg {
					sl.pendingRegs = append(sl.pendingRegs[:i], sl.pendingRegs[i+1:]...)
					break
				}
			}
		}
		// A drain only ever clears hazards, so a slot already ready stays
		// ready; a buffered, blocked one may have just become ready.
		if (c.issuable&^c.ready)&(1<<ev.slot) != 0 {
			c.refresh(ev.slot)
		}
	}
	return drained
}

// fetchStage models instruction fetch + decode: up to Schedulers warps per
// cycle refill their instruction buffer slot. It returns the fetch count.
func (c *coreState) fetchStage(a *Activity) int {
	n := len(c.slots)
	fetched := 0
	c.fetchedNow = 0
	// The scan visits i = fetchRR + scan with the LIVE fetchRR (a
	// successful fetch advances the whole window), skipping runs of
	// ineligible slots in one step: rotating the fetchable mask so bit 0 is
	// the scan head turns "next eligible slot" into a trailing-zero count.
	// Nothing mutates eligibility mid-scan except our own fetches.
	for scan := 0; scan < n && fetched < c.cfg.Schedulers; {
		f := c.fetchable
		if f == 0 {
			break
		}
		start := c.fetchRR + scan
		if start >= n {
			start -= n
		}
		rot := f>>start | f<<(n-start)
		d := bits.TrailingZeros64(rot)
		if scan+d >= n {
			break // next eligible slot is past the scan budget
		}
		scan += d
		i := start + d
		if i >= n {
			i -= n
		}
		c.fetchable &^= 1 << i
		c.issuable |= 1 << i
		c.fetchedNow |= 1 << i
		c.refresh(i)
		fetched++
		a.ICacheReads++
		a.Decodes++
		a.WSTReads++
		a.WSTWrites++
		a.IBufWrites++
		c.fetchRR = i + 1
		if c.fetchRR == n {
			c.fetchRR = 0
		}
		scan++
	}
	return fetched
}

// hazard reports whether the instruction at the warp's PC has a register
// dependency against in-flight instructions (scoreboard check) or, in
// blocking mode, whether anything at all is outstanding. The decoded
// HazRegs table is the same register set the seed built per issue with
// Instr.SrcRegs plus the destination.
func (c *coreState) hazard(sl *warpSlot, d *kernel.DInstr) bool {
	if !c.cfg.HasScoreboard {
		return sl.pendingN > 0
	}
	if len(sl.pendingRegs) >= c.cfg.ScoreboardEntries {
		return true
	}
	for _, r := range d.HazRegs[:d.NHaz] {
		for _, p := range sl.pendingRegs {
			if p == r {
				return true
			}
		}
	}
	return false
}

// refresh recomputes slot i's ready and unit-class bits from its buffered
// instruction. Between fetch and issue a warp's PC is fixed and its hazard
// can change only when one of its own writebacks drains, so fetchStage and
// drainEvents are the only callers, and this is the only caller of hazard.
func (c *coreState) refresh(i int) {
	sl := &c.slots[i]
	d := &c.dec[sl.w.PC()]
	bit := uint64(1) << i
	switch d.Class {
	case kernel.ClassInt, kernel.ClassFP:
		c.aluMask |= bit
	case kernel.ClassSFU:
		c.sfuMask |= bit
	case kernel.ClassMem:
		c.memMask |= bit
	}
	if c.hazard(sl, d) {
		c.ready &^= bit
	} else {
		c.ready |= bit
	}
}

// unbuffer clears the issuable, ready and unit-class bits of the given
// slots: their instruction buffers emptied (issue) or they left (retire).
func (c *coreState) unbuffer(m uint64) {
	c.issuable &^= m
	c.ready &^= m
	c.aluMask &^= m
	c.sfuMask &^= m
	c.memMask &^= m
}

// issueStage arbitrates and issues up to one instruction per scheduler,
// considering warps in the order the configured scheduling policy dictates.
// The winner is the first eligible slot in that order that is ready and
// whose unit is free; every eligible slot the order visits up to it costs
// one scoreboard search, and every ready one among them that found its unit
// busy bounds the fast-forward (structNext). Both are mask arithmetic: no
// candidate but the winner is decoded.
func (g *gpuSim) issueStage(c *coreState, now uint64) error {
	a := &g.act
	n := len(c.slots)
	for sched := 0; sched < c.cfg.Schedulers; sched++ {
		cand := c.issuable & c.schedMask[sched]
		elig := cand &^ c.fetchedNow
		if elig == 0 {
			continue
		}
		a.SchedArbs++

		free := ^(c.aluMask | c.sfuMask | c.memMask) // control needs no unit
		if c.spFree[sched] <= now {
			free |= c.aluMask
		}
		if c.sfuFree <= now {
			free |= c.sfuMask
		}
		if c.ldstFree <= now {
			free |= c.memMask
		}
		pick := elig & c.ready & free

		var win int
		var visited uint64
		switch g.policy {
		case PolicyGTO:
			win, visited = c.gtoPick(sched, elig, pick)
		case PolicyTwoLevel:
			win, visited = c.twoLevelPick(sched, g.activeSet, cand, elig, pick)
		default:
			win, visited = c.rrPick(sched, elig, pick)
		}
		a.SBSearches += uint64(bits.OnesCount64(visited))

		// Hazard-free but structurally blocked warps ahead of the winner
		// become issuable the moment their unit frees, so the fast-forward
		// must not jump past that point.
		if blocked := visited & c.ready &^ free; blocked != 0 {
			if blocked&c.aluMask != 0 && c.spFree[sched] < g.structNext {
				g.structNext = c.spFree[sched]
			}
			if blocked&c.sfuMask != 0 && c.sfuFree < g.structNext {
				g.structNext = c.sfuFree
			}
			if blocked&c.memMask != 0 && c.ldstFree < g.structNext {
				g.structNext = c.ldstFree
			}
		}
		if win < 0 {
			continue
		}

		if err := g.issueInstr(c, win, sched, now); err != nil {
			return err
		}
		c.issueRR[sched] = (win + 1) % n
		c.lastIssued[sched] = win
	}
	return nil
}

// issueInstr executes slot slotIdx's buffered instruction functionally and
// models its timing.
func (g *gpuSim) issueInstr(c *coreState, slotIdx, sched int, now uint64) error {
	a := &g.act
	cfg := c.cfg
	sl := &c.slots[slotIdx]
	pc := sl.w.PC()
	in, d := &g.prog.Instrs[pc], &c.dec[pc]
	class := d.Class

	info, err := sl.w.Exec(g.prog, sl.block.env)
	if err != nil {
		return fmt.Errorf("core %d slot %d: %w", c.id, slotIdx, err)
	}

	g.progress = true
	c.unbuffer(1 << slotIdx)
	if !sl.w.Finished && !sl.w.AtBarrier {
		c.fetchable |= 1 << slotIdx
	}
	a.IssuedInstrs++
	a.IBufReads++
	a.WSTReads++
	a.ReconvReads++
	if info.Diverged {
		a.ReconvPushes += 2
	}
	a.ReconvPops += uint64(info.Reconverged)

	// Register file activity: one bank row read per source register
	// (operands collected over multiple cycles), one collector fill and one
	// crossbar transfer each.
	nsrc := uint64(d.NSrc)
	a.RFBankReads += nsrc
	a.OCWrites += nsrc
	a.OperandXbar += nsrc

	lanes := info.ActiveLanes
	var latency uint64
	hasWB := in.HasDst

	switch class {
	case kernel.ClassInt, kernel.ClassFP:
		ii := uint64(cfg.WarpSize / (cfg.FUsPerCore / cfg.Schedulers))
		if ii == 0 {
			ii = 1
		}
		c.spFree[sched] = now + ii
		latency = uint64(cfg.ALULatency)
		if class == kernel.ClassInt {
			a.IntWarpInstrs++
			a.IntThreadInstrs += uint64(lanes)
		} else {
			a.FPWarpInstrs++
			a.FPThreadInstrs += uint64(lanes)
		}
	case kernel.ClassSFU:
		ii := uint64(cfg.WarpSize / cfg.SFUsPerCore)
		if ii == 0 {
			ii = 1
		}
		c.sfuFree = now + ii
		latency = uint64(cfg.SFULatency)
		a.SFUWarpInstrs++
		a.SFUThreadInstrs += uint64(lanes)
	case kernel.ClassMem:
		a.MemWarpInstrs++
		var err error
		latency, err = g.memAccess(c, in, &info, now)
		if err != nil {
			return err
		}
	default: // control
		a.CtrlWarpInstrs++
		latency = 1
		hasWB = false
	}

	if info.AtBarrier {
		sl.block.atBarrier++
		c.maybeReleaseBarrier(sl.block)
	}
	if info.Finished {
		sl.block.finished++
		a.WSTWrites++
		c.maybeReleaseBarrier(sl.block)
	}

	if class == kernel.ClassCtrl && !hasWB {
		// Control instructions complete immediately; no pipeline slot held.
		g.retireIfDone(c, sl.block)
		return nil
	}

	if cfg.HasScoreboard && hasWB {
		sl.pendingRegs = append(sl.pendingRegs, in.Dst)
		a.SBWrites++
	}
	sl.pendingN++
	sl.block.outstanding++
	isMem := class == kernel.ClassMem
	if isMem {
		sl.memPending++
		c.memWait |= 1 << slotIdx
	}
	c.events.push(wbEvent{cycle: now + latency, slot: slotIdx, reg: in.Dst, hasWB: hasWB, isMem: isMem, lanes: lanes})
	return nil
}

// memAccess routes a memory instruction through the LDST unit: AGU, then the
// space-specific path. It returns the dependency latency.
func (g *gpuSim) memAccess(c *coreState, in *kernel.Instr, info *kernel.StepInfo, now uint64) (uint64, error) {
	a := &g.act
	cfg := c.cfg
	lanes := info.ActiveLanes

	// AGU: sub-AGUs generate 8 addresses per cycle.
	a.AGUAddresses += uint64(lanes)
	aguCycles := uint64((lanes + 7) / 8)
	if aguCycles == 0 {
		aguCycles = 1
	}

	switch in.Space {
	case kernel.SpaceShared:
		extra := smemExtraCycles(info, cfg.SMemBanks)
		a.SMemAccesses += uint64(lanes)
		a.SMemConflicts += uint64(extra)
		c.ldstFree = now + aguCycles + uint64(extra)
		return uint64(cfg.SMemLatency) + uint64(extra), nil

	case kernel.SpaceConst, kernel.SpaceParam:
		addrs := constDistinctAddrs(info, c.addrBuf[:0])
		c.addrBuf = addrs
		a.ConstReads += uint64(len(addrs))
		worst := uint64(cfg.SMemLatency)
		for _, ad := range addrs {
			res := c.ccache.Access(uint64(ad), false)
			if !res.Hit {
				a.ConstMisses++
				done := g.mem.globalSegment(now, constRegionBase+ad, cfg.ConstLineB, false, a)
				if done-now > worst {
					worst = done - now
				}
			}
		}
		c.ldstFree = now + aguCycles + uint64(len(addrs)-1)
		return worst, nil

	case kernel.SpaceTexture:
		if c.tcache == nil {
			return 0, fmt.Errorf("sim: texture access on %s, which has no texture cache configured", cfg.Name)
		}
		// Per-lane addresses collapse to distinct cache lines (deduplicated
		// in lane order, so cache behaviour is deterministic); hits are
		// served at L1-like latency, misses fetch the line from memory.
		lines := c.lineBuf[:0]
		for l := 0; l < kernel.WarpSize; l++ {
			if info.ExecMask&(1<<l) == 0 {
				continue
			}
			line := info.Addrs[l] &^ uint32(cfg.TexLineB-1)
			dup := false
			for _, seen := range lines {
				if seen == line {
					dup = true
					break
				}
			}
			if !dup {
				lines = append(lines, line)
			}
		}
		c.lineBuf = lines
		worst := uint64(cfg.SMemLatency) + 12 // TMU addressing + filtering pipe
		for _, line := range lines {
			a.TexReads++
			if res := c.tcache.Access(uint64(line), false); !res.Hit {
				a.TexMisses++
				done := g.mem.globalSegment(now, line, cfg.TexLineB, false, a)
				if done-now > worst {
					worst = done - now
				}
			}
		}
		c.ldstFree = now + aguCycles + uint64(len(lines))
		return worst, nil

	case kernel.SpaceGlobal:
		write := in.Op == kernel.OpSt
		segs := coalesce(info, c.segBuf[:0])
		c.segBuf = segs
		a.CoalescerQueries++
		a.CoalescedReqs += uint64(len(segs))
		a.PRTWrites += uint64(len(segs))
		var worst uint64
		for _, seg := range segs {
			segDone := g.globalThroughL1(c, now, seg, write, a)
			if segDone > worst {
				worst = segDone
			}
		}
		c.ldstFree = now + aguCycles + uint64(len(segs))
		if write {
			// Stores retire once handed to the memory system.
			return 4, nil
		}
		if worst <= now {
			worst = now + uint64(cfg.SMemLatency)
		}
		return worst - now, nil
	}
	return 0, fmt.Errorf("sim: unhandled memory space %v", in.Space)
}

// globalThroughL1 sends one segment through the per-core L1 (when present)
// and on to the shared memory system.
func (g *gpuSim) globalThroughL1(c *coreState, now uint64, seg uint32, write bool, a *Activity) uint64 {
	if c.l1 != nil {
		res := c.l1.Access(uint64(seg), write)
		if write {
			a.L1Writes++
			// Write-through: always forwarded.
			return g.mem.globalSegment(now, seg, segmentBytes, true, a)
		}
		a.L1Reads++
		if res.Hit {
			return now + uint64(c.cfg.SMemLatency) + 8
		}
		a.L1Misses++
	}
	return g.mem.globalSegment(now, seg, segmentBytes, write, a)
}
