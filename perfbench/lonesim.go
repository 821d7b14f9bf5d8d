package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gpusimpow/internal/bench"
	"gpusimpow/internal/config"
	"gpusimpow/internal/core"
	"gpusimpow/internal/kernel"
	"gpusimpow/internal/simcache"
)

// One lone-sim pass runs every (GPU, benchmark) pair once: 78 launches. The
// simulator is deterministic, so its totals are pinned; any drift is an
// output error, whatever the order the seed chose.
const (
	lonePassLaunches = 78
	lonePassCycles   = 1318445
	lonePassIssued   = 581766
)

var loneGPUs = []func() *config.GPU{config.GT240, config.GTX580}

// lonePair is one (GPU, benchmark) instance of the suite.
type lonePair struct {
	gpu int
	f   bench.Factory
}

func (p lonePair) String() string { return loneGPUs[p.gpu]().Name + "/" + p.f.Name }

func lonePairs() []lonePair {
	var ps []lonePair
	for g := range loneGPUs {
		for _, f := range bench.Suite() {
			ps = append(ps, lonePair{g, f})
		}
	}
	return ps
}

// newSims builds one simulator per GPU at the default configuration; only
// the simulation cache is switched off when cacheOff is set.
func newSims(tr *tracer, parent int, op string, cacheOff bool) ([]*core.Simulator, error) {
	sims := make([]*core.Simulator, len(loneGPUs))
	for g, preset := range loneGPUs {
		cfg := preset()
		cfg.DisableSimCache = cacheOff
		sp := tr.begin(parent, op, "core.new")
		s, err := core.New(cfg)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sims[g] = s
	}
	return sims, nil
}

// makeInstances builds one fresh instance per pair.
func makeInstances(tr *tracer, parent int, op string, pairs []lonePair) ([]*bench.Instance, error) {
	insts := make([]*bench.Instance, len(pairs))
	for i, p := range pairs {
		sp := tr.begin(parent, op, "bench.make")
		inst, err := p.f.Make()
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		insts[i] = inst
	}
	return insts, nil
}

// lonePass is one pass's outcome.
type lonePass struct {
	wall             time.Duration
	launchMS         []float64
	byLaunch         map[[2]int]time.Duration // (pair, run) -> Simulate host time
	cycles, issued   uint64
	launches, failed int
}

// runLonePass simulates every pair's launches back to back in the given
// order, then verifies each instance. spanName labels the Simulate spans.
func runLonePass(tr *tracer, op string, sims []*core.Simulator, pairs []lonePair, order []int, insts []*bench.Instance, spanName string) lonePass {
	t0 := time.Now()
	root := tr.begin(-1, op, "lone.pass")
	lp := lonePass{byLaunch: map[[2]int]time.Duration{}}
	for _, pi := range order {
		p := pairs[pi]
		sp := tr.begin(root, op, "lone.instance")
		inst := insts[pi]
		ok := true
		for ri, r := range inst.Runs {
			lp.launches++
			s := tr.begin(sp, op, spanName)
			ts := time.Now()
			res, err := sims[p.gpu].Simulate(r.Launch, inst.Mem, r.CMem)
			d := time.Since(ts)
			tr.end(s)
			if err != nil {
				ok = false
				lp.failed += len(inst.Runs) - ri
				break
			}
			lp.launchMS = append(lp.launchMS, ms(d))
			lp.byLaunch[[2]int{pi, ri}] = d
			lp.cycles += res.Perf.Activity.Cycles
			lp.issued += res.Perf.Activity.IssuedInstrs
		}
		if ok {
			v := tr.begin(sp, op, "bench.verify")
			err := inst.Verify()
			tr.end(v)
			if err != nil {
				lp.failed += len(inst.Runs)
			}
		}
		tr.end(sp)
	}
	tr.end(root)
	lp.wall = time.Since(t0)
	if lp.launches != lonePassLaunches || lp.cycles != lonePassCycles || lp.issued != lonePassIssued {
		lp.failed = lp.launches
	}
	return lp
}

// loneRun measures passes over fresh instances until the budget is spent.
type loneRun struct {
	wall     time.Duration
	passes   []lonePass
	launches int
	failed   int
}

func (lr *loneRun) launchMS() []float64 {
	var out []float64
	for _, p := range lr.passes {
		out = append(out, p.launchMS...)
	}
	return out
}

func measureLone(rc *runCtx, tr *tracer, budget time.Duration, sims []*core.Simulator, pairs []lonePair, first []*bench.Instance, passBase int) (*loneRun, error) {
	rng := rc.rng(uint64(1000 + passBase))
	lr := &loneRun{}
	wall, err := timed(budget, func(i int) error {
		op := fmt.Sprintf("pass-%d", passBase+i)
		insts := first
		if i > 0 || insts == nil {
			var err error
			if insts, err = makeInstances(tr, -1, op, pairs); err != nil {
				return err
			}
		}
		p := runLonePass(tr, op, sims, pairs, rng.Perm(len(pairs)), insts, "sim.Simulate")
		lr.passes = append(lr.passes, p)
		lr.launches += p.launches
		lr.failed += p.failed
		return nil
	})
	lr.wall = wall
	return lr, err
}

func runLoneSim(rc *runCtx) (*result, error) {
	pairs := lonePairs()
	var sims []*core.Simulator
	var first []*bench.Instance
	res := &result{metrics: map[string]float64{}}
	err := rc.setupReps(res, 15, func() error {
		var err error
		if sims, err = newSims(rc.tr, -1, "setup", true); err != nil {
			return err
		}
		first, err = makeInstances(rc.tr, -1, "setup", pairs)
		return err
	})
	if err != nil {
		return nil, err
	}

	if !rc.trace {
		lr, err := measureLone(rc, rc.tr, rc.seconds, sims, pairs, first, 0)
		if err != nil {
			return nil, err
		}
		lat := summarize(lr.launchMS())
		res.attempted, res.failed = lr.launches, lr.failed
		res.metrics["latency_p50_ms"] = lat.p50
		res.metrics["latency_p90_ms"] = lat.p90
		res.metrics["ops_per_s"] = float64(lr.launches-lr.failed) / lr.wall.Seconds()
		res.notef("launch latency: p50 %.4f ms, p90 %.4f ms over %d launches (%d beyond p90) in %d passes",
			lat.p50, lat.p90, lat.n, lat.beyondP90, len(lr.passes))
		p0 := lr.passes[0]
		res.notef("first pass: %d launches, %d cycles, %d issued instructions", p0.launches, p0.cycles, p0.issued)
		return res, nil
	}
	return traceLone(rc, res, sims, pairs, first)
}

// traceLone is the traced run: an untraced half and a traced half of the
// budget (their difference is the tracing overhead), then the functional
// interpreter over the same launches and three cache-on passes (misses,
// memory hits, disk hits) that price the simulation cache per launch.
func traceLone(rc *runCtx, res *result, sims []*core.Simulator, pairs []lonePair, first []*bench.Instance) (*result, error) {
	tr := rc.tr
	plain, err := measureLone(rc, newTracer(false), rc.seconds/2, sims, pairs, first, 0)
	if err != nil {
		return nil, err
	}
	traced, err := measureLone(rc, tr, rc.seconds/2, sims, pairs, nil, 1000)
	if err != nil {
		return nil, err
	}
	res.attempted += plain.launches + traced.launches
	res.failed += plain.failed + traced.failed
	m := res.metrics
	m["trace.overhead_frac"] = median(traced.launchMS())/median(plain.launchMS()) - 1

	// Counts are per pass (every pass simulates the same launches); times
	// are per pass too, the median over the traced passes.
	simS, _ := tr.total("sim.Simulate")
	np := float64(len(traced.passes))
	p0 := traced.passes[0]
	m["sim.simulate_s"] = simS.Seconds() / np
	m["sim.cycles"] = float64(p0.cycles)
	m["sim.issued_instrs"] = float64(p0.issued)
	m["sim.host_ns_per_cycle"] = float64(simS.Nanoseconds()) / (np * float64(p0.cycles))
	res.notef("traced: %d passes of %d simulated cycles, %.3f s of Simulate in all", len(traced.passes), p0.cycles, simS.Seconds())

	// Functional interpreter over the same launches, verified like a pass.
	order := rc.rng(7).Perm(len(pairs))
	insts, err := makeInstances(tr, -1, "interp", pairs)
	if err != nil {
		return nil, err
	}
	var warpInstrs uint64
	for _, pi := range order {
		inst := insts[pi]
		ok := true
		for _, r := range inst.Runs {
			res.attempted++
			sp := tr.begin(-1, "interp", "kernel.Interp")
			st, err := kernel.Interp(r.Launch, inst.Mem, r.CMem)
			tr.end(sp)
			if err != nil {
				res.failed++
				ok = false
				continue
			}
			warpInstrs += st.WarpInstrs
		}
		if ok && inst.Verify() != nil {
			res.failed += len(inst.Runs)
		}
	}
	interp, _ := tr.total("kernel.Interp")
	m["kernel.interp_s"] = interp.Seconds()
	m["kernel.interp_warp_instrs_per_s"] = float64(warpInstrs) / interp.Seconds()

	if err := traceLoneCache(rc, res, pairs, traced); err != nil {
		return nil, err
	}
	fillMakeAndNew(tr, m)
	for _, l := range selfTable(tr.selfTimes()) {
		res.notef("self %s s", l)
	}
	return res, nil
}

// traceLoneCache runs the suite through cache-on simulators: a cold pass
// (every launch misses), a warm pass (memory hits), then, with a spill
// directory, a pass that writes the disk and one that reads it back after
// the memory is dropped.
func traceLoneCache(rc *runCtx, res *result, pairs []lonePair, off *loneRun) error {
	tr := rc.tr
	m := res.metrics
	c := simcache.Default()
	sims, err := newSims(tr, -1, "cache", false)
	if err != nil {
		return err
	}
	order := rc.rng(8).Perm(len(pairs))
	pass := func(op, spanName string) (lonePass, error) {
		insts, err := makeInstances(tr, -1, op, pairs)
		if err != nil {
			return lonePass{}, err
		}
		p := runLonePass(tr, op, sims, pairs, order, insts, spanName)
		res.attempted += p.launches
		res.failed += p.failed
		return p, nil
	}
	c.Reset()
	miss, err := pass("cache-miss", "simcache.miss")
	if err != nil {
		return err
	}
	if _, err := pass("cache-hit", "simcache.mem_hit"); err != nil {
		return err
	}
	st := c.Stats()

	// Cache-on miss minus cache-off simulation, launch by launch; the
	// cache-off reference is the traced passes' mean for that launch.
	var sum time.Duration
	n := 0
	for k, d := range miss.byLaunch {
		var ref time.Duration
		cnt := 0
		for _, p := range off.passes {
			if v, ok := p.byLaunch[k]; ok {
				ref += v
				cnt++
			}
		}
		if cnt > 0 {
			sum += d - ref/time.Duration(cnt)
			n++
		}
	}
	if n > 0 {
		m["simcache.miss_overhead_ms"] = ms(sum) / float64(n)
	}

	dir := filepath.Join(rc.scratch, "simcache")
	if err := c.SetDir(dir); err != nil {
		return err
	}
	defer func() {
		_ = c.SetDir("") // clearing the spill cannot fail
		os.RemoveAll(dir)
	}()
	c.Reset()
	if _, err := pass("cache-spill", "simcache.miss_spill"); err != nil {
		return err
	}
	spill := c.Stats()
	c.Reset()
	if _, err := pass("cache-disk", "simcache.disk_hit"); err != nil {
		return err
	}
	disk := c.Stats()

	// Reset zeroes the counters, so the deltas add up per cold start.
	fillSimcache(m, simcache.Stats{
		Hits: st.Hits + spill.Hits + disk.Hits, Misses: st.Misses + spill.Misses + disk.Misses,
		DiskHits: disk.DiskHits, Bytes: st.Bytes,
	})
	m["simcache.mem_hit_ms"], _ = tr.meanMS("simcache.mem_hit")
	m["simcache.disk_hit_ms"], _ = tr.meanMS("simcache.disk_hit")
	res.notef("simcache: %.0f misses, %.0f hits (%d from disk) over the cache passes", m["simcache.misses"], m["simcache.hits"], disk.DiskHits)
	c.Reset()
	return nil
}

// fillMakeAndNew reports instance builds and simulator construction.
func fillMakeAndNew(tr *tracer, m map[string]float64) {
	var n int
	m["bench.make_ms"], n = tr.meanMS("bench.make")
	m["bench.builds"] = float64(n)
	m["core.new_ms"], n = tr.meanMS("core.new")
	m["core.news"] = float64(n)
}
