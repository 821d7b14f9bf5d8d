package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	// The experiments package registers every scenario with the sweep
	// registry at init.
	_ "gpusimpow/internal/experiments"
	"gpusimpow/internal/simcache"
	"gpusimpow/internal/sweep"
)

// sweepArtifacts is every artifact of `gpowexp all` plus l1sched.
var sweepArtifacts = []string{
	"table2", "table4", "table5", "fig4", "fig6a", "fig6b",
	"energyperop", "staticextrap", "dvfs", "ablation", "l1sched",
}

// loadGoldens reads each artifact's golden rendering, read-only.
func loadGoldens() (map[string][]byte, error) {
	g := map[string][]byte{}
	for _, name := range sweepArtifacts {
		b, err := os.ReadFile(filepath.Join("internal", "experiments", "testdata", name+".golden"))
		if err != nil {
			return nil, err
		}
		g[name] = b
	}
	return g, nil
}

// coldPass is one pass over every artifact from an empty cache: its wall
// time, its golden checks and, from the pipeline, the reports it built.
type coldPass struct {
	wall              time.Duration
	attempted, failed int
	reports           map[string]*sweep.Report
	// artifact is each artifact's render time within the pass.
	artifact map[string]time.Duration
}

// passFunc renders one artifact; pipelined passes also return its report.
type passFunc func(parent int, name string) ([]byte, *sweep.Report, error)

func wholeArtifact(_ int, name string) ([]byte, *sweep.Report, error) {
	var buf bytes.Buffer
	err := sweep.RunScenario(&buf, name, nil)
	return buf.Bytes(), nil, err
}

// runColdPass empties the cache, then renders every artifact in order and
// compares each with its golden.
func runColdPass(tr *tracer, op string, order []string, goldens map[string][]byte, render passFunc) coldPass {
	simcache.Default().Reset()
	cp := coldPass{reports: map[string]*sweep.Report{}, artifact: map[string]time.Duration{}}
	t0 := time.Now()
	for _, name := range order {
		cp.attempted++
		sp := tr.begin(-1, op, "experiments."+name)
		a0 := time.Now()
		out, rep, err := render(sp, name)
		cp.artifact[name] = time.Since(a0)
		tr.end(sp)
		if err != nil || !bytes.Equal(out, goldens[name]) {
			cp.failed++
			continue
		}
		cp.reports[name] = rep
	}
	cp.wall = time.Since(t0)
	return cp
}

// pipelined renders sweep-backed artifacts through the layer-by-layer
// pipeline and table-style ones whole.
func pipelined(pl *pipeline) passFunc {
	return func(parent int, name string) ([]byte, *sweep.Report, error) {
		if _, ok := artifactParts[name]; !ok {
			return wholeArtifact(parent, name)
		}
		return pl.render(parent, name)
	}
}

func runSweepCold(rc *runCtx) (*result, error) {
	// The goldens are the benchmark's own check data, read before set-up.
	goldens, err := loadGoldens()
	if err != nil {
		return nil, err
	}
	res := &result{metrics: map[string]float64{}}
	err = rc.setupReps(res, 15, func() error {
		for _, name := range sweepArtifacts {
			if _, ok := sweep.Lookup(name); !ok {
				return fmt.Errorf("artifact %s is not registered", name)
			}
		}
		simcache.Default().Reset()
		return nil
	})
	if err != nil {
		return nil, err
	}
	rng := rc.rng(2000)
	order := func() []string {
		o := make([]string, len(sweepArtifacts))
		for i, j := range rng.Perm(len(sweepArtifacts)) {
			o[i] = sweepArtifacts[j]
		}
		return o
	}

	if !rc.trace {
		// Every pass renders the seed's order, so an artifact does the same
		// work in each pass and its render times across passes are samples
		// of one distribution.
		ord := order()
		var passMS []float64
		art := map[string][]float64{}
		_, err := timed(rc.seconds, func(i int) error {
			cp := runColdPass(rc.tr, fmt.Sprintf("pass-%d", i), ord, goldens, wholeArtifact)
			passMS = append(passMS, ms(cp.wall))
			for name, d := range cp.artifact {
				art[name] = append(art[name], ms(d))
			}
			res.attempted += cp.attempted
			res.failed += cp.failed
			return nil
		})
		if err != nil {
			return nil, err
		}
		// A run holds only a handful of passes, so the pass latency is built
		// per artifact: the sum of each artifact's median (p90) render time.
		// A slow spell of the host that covers part of a pass then moves only
		// the artifacts it covers, and only in that pass.
		var p50, p90 float64
		var perArtifact []string
		for _, name := range ord {
			p50 += median(art[name])
			p90 += quantile(art[name], 0.9)
			perArtifact = append(perArtifact, fmt.Sprintf("%s %.1f", name, median(art[name])))
		}
		res.metrics["latency_p50_ms"] = p50
		res.metrics["latency_p90_ms"] = p90
		ok := float64(res.attempted-res.failed) / float64(len(passMS))
		res.metrics["ops_per_s"] = ok / (p50 / 1000)
		res.notef("cold pass: p50 %.1f ms, p90 %.1f ms from %d passes of %d artifacts; whole passes took %v ms",
			p50, p90, len(passMS), len(ord), passMS)
		res.notef("median ms per artifact, in the seed's order: %s", strings.Join(perArtifact, ", "))
		return res, nil
	}
	return traceSweepCold(rc, res, order(), goldens)
}

// traceSweepCold renders one cold pass through the pipeline untraced and
// one traced (their ratio is the tracing overhead), then one cold pass that
// times Plan.Run for the sweep-backed parts, against which the traced
// groups' serial sum gives the runner's fan-out speed-up.
func traceSweepCold(rc *runCtx, res *result, order []string, goldens map[string][]byte) (*result, error) {
	tr := rc.tr
	m := res.metrics
	plain := runColdPass(newTracer(false), "plain", order, goldens, pipelined(&pipeline{tr: newTracer(false), op: "plain"}))
	traced := runColdPass(tr, "traced", order, goldens, pipelined(&pipeline{tr: tr, op: "traced"}))
	st := simcache.Default().Stats()
	res.attempted += plain.attempted + traced.attempted
	res.failed += plain.failed + traced.failed
	m["trace.overhead_frac"] = traced.wall.Seconds()/plain.wall.Seconds() - 1
	res.notef("pipeline pass: %.3f s untraced, %.3f s traced", plain.wall.Seconds(), traced.wall.Seconds())

	// Plan.Run wall time per sweep part, from an empty cache, with the
	// table-style artifacts rendered in between as in the other passes.
	simcache.Default().Reset()
	var runWall time.Duration
	for _, name := range order {
		parts, ok := artifactParts[name]
		if !ok {
			res.attempted++
			if out, _, err := wholeArtifact(-1, name); err != nil || !bytes.Equal(out, goldens[name]) {
				res.failed++
			}
			continue
		}
		for _, pt := range parts {
			sc, _ := sweep.Lookup(pt.scenario)
			plan, err := sc.Spec().Plan(pt.filter)
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			if _, err := plan.Run(nil); err != nil {
				return nil, err
			}
			runWall += time.Since(t0)
		}
	}
	groups, _ := tr.total("sweep.group")
	m["runner.fanout_speedup"] = groups.Seconds() / runWall.Seconds()
	res.notef("Plan.Run wall %.3f s against %.3f s of serial traced groups", runWall.Seconds(), groups.Seconds())

	for _, name := range sweepArtifacts {
		d, _ := tr.total("experiments." + name)
		m["experiments."+name+"_s"] = d.Seconds()
	}
	for name, key := range map[string]string{"fig6a": "experiments.fig6_gt240_err_pct", "fig6b": "experiments.fig6_gtx580_err_pct"} {
		if rep := traced.reports[name]; rep != nil {
			v, err := fig6ErrPct(rep)
			if err != nil {
				return nil, err
			}
			m[key] = v
		}
	}
	fillSimcache(m, st)
	fillPipeline(tr, m)
	for _, l := range selfTable(tr.selfTimes()) {
		res.notef("self %s s", l)
	}
	simcache.Default().Reset()
	return res, nil
}

// fillSimcache reports cache counters accumulated since the last Reset.
func fillSimcache(m map[string]float64, st simcache.Stats) {
	m["simcache.hits"] = float64(st.Hits)
	m["simcache.misses"] = float64(st.Misses)
	m["simcache.disk_hits"] = float64(st.DiskHits)
	m["simcache.bytes"] = float64(st.Bytes)
	if tot := st.Hits + st.Misses; tot > 0 {
		m["simcache.hit_ratio"] = float64(st.Hits) / float64(tot)
	}
}
