package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"gpusimpow/internal/core"
	"gpusimpow/internal/hw"
	"gpusimpow/internal/power"
	"gpusimpow/internal/runner"
	"gpusimpow/internal/simcache"
	"gpusimpow/internal/sweep"
)

// part is one sweep scenario run, restricted by a filter, that makes up
// (part of) a rendered artifact.
type part struct {
	scenario string
	filter   sweep.Filter
}

// artifactParts maps each sweep-backed artifact of `gpowexp all` plus
// l1sched to the sweeps behind it. fig6a/fig6b are the fig6 grid filtered
// to one GPU; ablation concatenates the five ablation studies' sections in
// the order the composite scenario uses. Artifacts absent here are
// table-style and run whole through sweep.RunScenario.
var artifactParts = map[string][]part{
	"fig6a":       {{"fig6", sweep.Filter{"gpu": {"GT240"}}}},
	"fig6b":       {{"fig6", sweep.Filter{"gpu": {"GTX580"}}}},
	"energyperop": {{"energyperop", nil}},
	"dvfs":        {{"dvfs", nil}},
	"l1sched":     {{"l1sched", nil}},
	"ablation": {
		{"ablation-scoreboard", nil}, {"ablation-l2", nil}, {"ablation-processnode", nil},
		{"ablation-corecount", nil}, {"ablation-scheduler", nil},
	},
}

// pipeline drives one sweep through the layers one call at a time —
// Plan, Cost, Workload.Build, core.New, Simulate, EvaluatePowerBatch, card
// measurement, Records, Reduce and RenderText — timing groups one after
// another, with a span around every call. It mirrors sweep.Plan.Run's
// grouped and shared-card executors; the rendered report matching the
// golden file shows the decomposition is the real pipeline.
type pipeline struct {
	tr *tracer
	op string
}

// report builds one part's report.
func (pl *pipeline) report(parent int, pt part) (*sweep.Report, error) {
	tr, op := pl.tr, pl.op
	sc, ok := sweep.Lookup(pt.scenario)
	if !ok || sc.Spec == nil {
		return nil, fmt.Errorf("%s: not a sweep scenario", pt.scenario)
	}
	if sc.CheckFilter != nil {
		if err := sc.CheckFilter(pt.filter); err != nil {
			return nil, err
		}
	}
	sp := tr.begin(parent, op, "sweep.plan")
	plan, err := sc.Spec().Plan(pt.filter)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin(parent, op, "sweep.cost")
	_, err = plan.Cost()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin(parent, op, "sweep.run")
	results, err := pl.run(sp, plan)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin(parent, op, "sweep.records")
	recs := plan.Records(results)
	tr.end(sp)
	sp = tr.begin(parent, op, "sweep.reduce")
	rep, err := sc.Reduce(recs, pt.filter)
	tr.end(sp)
	tr.add("sweep.cells", float64(len(plan.Cells)))
	tr.add("sweep.timing_groups", float64(len(plan.Groups)))
	return rep, err
}

// render builds an artifact from its parts and renders it as text.
func (pl *pipeline) render(parent int, name string) ([]byte, *sweep.Report, error) {
	rep := &sweep.Report{Scenario: name}
	for _, pt := range artifactParts[name] {
		r, err := pl.report(parent, pt)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", name, err)
		}
		rep.Sections = append(rep.Sections, r.Sections...)
	}
	var buf bytes.Buffer
	sp := pl.tr.begin(parent, pl.op, "sweep.render")
	err := sweep.RenderText(&buf, rep)
	pl.tr.end(sp)
	return buf.Bytes(), rep, err
}

// groupTiming is one group's timing stage: the leader's simulator, the
// built units and one timing result per unit.
type groupTiming struct {
	simr    *core.Simulator
	units   []sweep.Unit
	timings []*simcache.TimingResult
}

func (pl *pipeline) simulate(parent int, s *sweep.Spec, leader *sweep.Cell) (*groupTiming, error) {
	tr, op := pl.tr, pl.op
	sp := tr.begin(parent, op, "core.new")
	simr, err := core.New(leader.Cfg)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin(parent, op, "bench.make")
	inst, err := leader.Workload.Build(leader.Cfg)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	gt := &groupTiming{simr: simr, units: inst.Units, timings: make([]*simcache.TimingResult, len(inst.Units))}
	for i := range gt.units {
		u := &gt.units[i]
		sp := tr.begin(parent, op, "sim.Simulate")
		t0 := time.Now()
		res, err := simr.Simulate(u.Launch, inst.Mem, u.CMem)
		d := time.Since(t0)
		if err != nil {
			tr.end(sp)
			return nil, err
		}
		// A leader the cache answers is a replay, timed as a memory hit; the
		// simulator's counts cover only the leaders it really simulates.
		// Which leaders hit depends on the artifact order (table5 shares
		// fig6a's BlackScholes run), so the counts repeat exactly for a
		// seed, not across seeds.
		if res.CacheHit {
			tr.rename(sp, "simcache.mem_hit")
		} else {
			tr.add("sim.cycles", float64(res.Perf.Activity.Cycles))
			tr.add("sim.issued_instrs", float64(res.Perf.Activity.IssuedInstrs))
			tr.add("sim.simulate_ns", float64(d.Nanoseconds()))
		}
		tr.end(sp)
		gt.timings[i] = res
	}
	if s.Verify && inst.Verify != nil {
		sp := tr.begin(parent, op, "bench.verify")
		err := inst.Verify()
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	return gt, nil
}

// price runs the power stage for a group: one batched call per unit.
func (pl *pipeline) price(parent int, evs []*core.PowerEvaluator, gt *groupTiming) ([][]*power.RuntimeReport, error) {
	out := make([][]*power.RuntimeReport, len(gt.units))
	for i := range gt.units {
		sp := pl.tr.begin(parent, pl.op, "power.eval")
		rts, err := core.EvaluatePowerBatch(evs, gt.timings[i])
		pl.tr.end(sp)
		if err != nil {
			return nil, err
		}
		pl.tr.add("power.evals", float64(len(rts)))
		out[i] = rts
	}
	return out, nil
}

// run executes the plan group by group and returns results in plan order.
func (pl *pipeline) run(parent int, p *sweep.Plan) ([]*sweep.CellResult, error) {
	s := p.Spec
	results := make([]*sweep.CellResult, len(p.Cells))
	if s.SharedCard {
		return results, pl.runShared(parent, p, results)
	}
	// Plan.Run fans the groups out over min(groups, GOMAXPROCS) runner
	// workers, which claim that many minus one from the shared worker
	// budget while the simulations run. Holding the same claim sizes each
	// simulation's auto SimWorkers as inside Plan.Run.
	fanout := min(len(p.Groups), runtime.GOMAXPROCS(0))
	runner.ReserveWorkers(fanout - 1)
	defer runner.ReleaseWorkers(fanout - 1)
	for _, g := range p.Groups {
		gs := pl.tr.begin(parent, pl.op, "sweep.group")
		err := pl.runGroup(gs, p, g, results)
		pl.tr.end(gs)
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

func (pl *pipeline) runGroup(gs int, p *sweep.Plan, g *sweep.Group, results []*sweep.CellResult) error {
	s := p.Spec
	var gt *groupTiming
	var priced [][]*power.RuntimeReport
	if s.Sim {
		var err error
		if gt, err = pl.simulate(gs, s, g.Leader()); err != nil {
			return err
		}
		if s.Power {
			evs := make([]*core.PowerEvaluator, len(g.Cells))
			evs[0] = gt.simr.PowerEvaluator()
			for ci := 1; ci < len(g.Cells); ci++ {
				if evs[ci], err = core.NewPowerEvaluator(g.Cells[ci].Cfg); err != nil {
					return err
				}
			}
			if priced, err = pl.price(gs, evs, gt); err != nil {
				return err
			}
		}
	}
	for ci, c := range g.Cells {
		cr := &sweep.CellResult{Cell: c}
		if gt != nil {
			for i := range gt.units {
				ur := sweep.UnitResult{Unit: gt.units[i], Timing: gt.timings[i]}
				if priced != nil {
					ur.Power = priced[i][ci]
				}
				cr.Units = append(cr.Units, ur)
			}
		}
		if s.Measure {
			if err := pl.measure(gs, s, c, nil, cr); err != nil {
				return err
			}
		}
		results[c.Index] = cr
	}
	return nil
}

// runShared mirrors the shared-card executor: one card measures every cell
// in plan order, and each group simulates on its first cell.
func (pl *pipeline) runShared(parent int, p *sweep.Plan, results []*sweep.CellResult) error {
	s := p.Spec
	session := ""
	if s.Session != nil {
		session = s.Session(p.Cells[0])
	}
	sp := pl.tr.begin(parent, pl.op, "hw.card")
	card, err := hw.NewCardSession(p.Cells[0].Cfg, session)
	pl.tr.end(sp)
	if err != nil {
		return err
	}
	groupOf := map[*sweep.Cell]*sweep.Group{}
	for _, g := range p.Groups {
		for _, c := range g.Cells {
			groupOf[c] = g
		}
	}
	timings := map[*sweep.Group]*groupTiming{}
	for _, c := range p.Cells {
		g := groupOf[c]
		gs := pl.tr.begin(parent, pl.op, "sweep.group")
		cr := &sweep.CellResult{Cell: c}
		if s.Sim {
			gt, ok := timings[g]
			if !ok {
				if gt, err = pl.simulate(gs, s, c); err != nil {
					pl.tr.end(gs)
					return err
				}
				timings[g] = gt
			}
			for i := range gt.units {
				cr.Units = append(cr.Units, sweep.UnitResult{Unit: gt.units[i], Timing: gt.timings[i]})
			}
			if s.Power {
				ev := gt.simr.PowerEvaluator()
				if c != g.Leader() {
					if ev, err = core.NewPowerEvaluator(c.Cfg); err != nil {
						pl.tr.end(gs)
						return err
					}
				}
				priced, err := pl.price(gs, []*core.PowerEvaluator{ev}, gt)
				if err != nil {
					pl.tr.end(gs)
					return err
				}
				for i := range cr.Units {
					cr.Units[i].Power = priced[i][0]
				}
			}
		}
		if s.Measure {
			if err := pl.measure(gs, s, c, card, cr); err != nil {
				pl.tr.end(gs)
				return err
			}
		}
		results[c.Index] = cr
		pl.tr.end(gs)
	}
	return nil
}

// measure measures one cell's units on its session card (or the shared
// card), from a fresh instance build.
func (pl *pipeline) measure(parent int, s *sweep.Spec, c *sweep.Cell, card *hw.Card, cr *sweep.CellResult) error {
	tr, op := pl.tr, pl.op
	sp := tr.begin(parent, op, "hw.measure")
	defer tr.end(sp)
	if card == nil {
		session := ""
		if s.Session != nil {
			session = s.Session(c)
		}
		var err error
		if card, err = hw.NewCardSession(c.Cfg, session); err != nil {
			return err
		}
	}
	if c.ClockScale != card.ClockScale() {
		if err := card.SetClockScale(c.ClockScale); err != nil {
			return err
		}
	}
	bs := tr.begin(sp, op, "bench.make")
	inst, err := c.Workload.Build(c.Cfg)
	tr.end(bs)
	if err != nil {
		return err
	}
	items := make([]hw.SeqItem, len(inst.Units))
	for i := range inst.Units {
		u := &inst.Units[i]
		items[i] = hw.SeqItem{
			Launch: u.Launch, Mem: inst.Mem, CMem: u.CMem,
			Repeats: u.Repeats, MinWindowS: u.MinWindowS, GapS: u.GapS,
		}
	}
	_, meas, err := card.MeasureSequence(items)
	if err != nil {
		return err
	}
	tr.add("hw.measurements", 1)
	if len(cr.Units) == 0 {
		cr.Units = make([]sweep.UnitResult, len(inst.Units))
		for i := range inst.Units {
			cr.Units[i].Unit = inst.Units[i]
		}
	}
	for i := range meas {
		cr.Units[i].Meas = &meas[i]
	}
	return nil
}

// fig6ErrPct reads a fig6 report's average relative error (its first note's
// first argument) at full precision.
func fig6ErrPct(rep *sweep.Report) (float64, error) {
	if len(rep.Sections) == 0 || len(rep.Sections[0].Notes) == 0 || len(rep.Sections[0].Notes[0].Args) == 0 ||
		rep.Sections[0].Notes[0].Args[0].F == nil {
		return 0, fmt.Errorf("fig6 report has no average error note")
	}
	return *rep.Sections[0].Notes[0].Args[0].F, nil
}

// fillPipeline reports the layer metrics of the one pipeline pass a traced
// run makes.
func fillPipeline(tr *tracer, m map[string]float64) {
	fillMakeAndNew(tr, m)
	if c := tr.count("sim.cycles"); c > 0 {
		ns := tr.count("sim.simulate_ns")
		m["sim.simulate_s"] = ns / 1e9
		m["sim.cycles"] = c
		m["sim.issued_instrs"] = tr.count("sim.issued_instrs")
		m["sim.host_ns_per_cycle"] = ns / c
	}
	m["simcache.mem_hit_ms"], _ = tr.meanMS("simcache.mem_hit")
	ev, _ := tr.meanMS("power.eval")
	m["power.eval_batch_us"] = ev * 1e3
	m["power.evals"] = tr.count("power.evals")
	m["hw.measure_ms"], _ = tr.meanMS("hw.measure")
	m["hw.measurements"] = tr.count("hw.measurements")
	plan, _ := tr.meanMS("sweep.plan")
	m["sweep.plan_us"] = plan * 1e3
	m["sweep.cost_ms"], _ = tr.meanMS("sweep.cost")
	run, _ := tr.total("sweep.run")
	m["sweep.run_s"] = run.Seconds()
	m["sweep.reduce_ms"], _ = tr.meanMS("sweep.reduce")
	render, _ := tr.meanMS("sweep.render")
	m["sweep.render_us"] = render * 1e3
	m["sweep.cells"] = tr.count("sweep.cells")
	m["sweep.timing_groups"] = tr.count("sweep.timing_groups")
}
