// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation section, plus simulator-throughput microbenchmarks.
// Each benchmark regenerates its artifact end to end and reports the
// headline reproduced quantity as a custom metric.
//
//	go test -bench=. -benchmem
package gpusimpow_test

import (
	"testing"

	"gpusimpow/internal/bench"
	"gpusimpow/internal/config"
	"gpusimpow/internal/core"
	"gpusimpow/internal/experiments"
)

// BenchmarkTable2Configs regenerates Table II (architecture features).
func BenchmarkTable2Configs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table2()
		if len(rows) != 9 {
			b.Fatal("table II incomplete")
		}
	}
}

// BenchmarkTable4StaticArea regenerates Table IV (static power and area,
// simulated vs. measured) and reports the GT240 static estimate.
func BenchmarkTable4StaticArea(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table4()
		if err != nil {
			b.Fatal(err)
		}
		last = rows[0].SimStaticW
	}
	b.ReportMetric(last, "GT240-sim-static-W")
}

// BenchmarkTable5Breakdown regenerates Table V (blackscholes power profile
// on GT240) and reports the cores' share of total power (paper: 82.2 %).
func BenchmarkTable5Breakdown(b *testing.B) {
	var share float64
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Table5()
		if err != nil {
			b.Fatal(err)
		}
		for _, it := range rep.Power.GPU {
			if it.Name == "Cores" {
				share = 100 * it.Total() / rep.Power.TotalW
			}
		}
	}
	b.ReportMetric(share, "cores-%-of-total")
}

// BenchmarkFig4ClusterStairs regenerates Figure 4 and reports the measured
// cluster activation cost (paper: 0.692 W).
func BenchmarkFig4ClusterStairs(b *testing.B) {
	var premium float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		premium = r.ClusterStepW - r.CoreStepW
	}
	b.ReportMetric(premium, "cluster-premium-W")
}

// BenchmarkFig6aGT240 regenerates Figure 6a (19 kernels simulated and
// measured on the GT240) and reports the average relative error
// (paper: 11.7 %).
func BenchmarkFig6aGT240(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6("GT240")
		if err != nil {
			b.Fatal(err)
		}
		avg = r.AvgRelErrPct
	}
	b.ReportMetric(avg, "avg-rel-err-%")
}

// BenchmarkFig6bGTX580 regenerates Figure 6b on the GTX580 and reports the
// average relative error (paper: 10.8 %).
func BenchmarkFig6bGTX580(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6("GTX580")
		if err != nil {
			b.Fatal(err)
		}
		avg = r.AvgRelErrPct
	}
	b.ReportMetric(avg, "avg-rel-err-%")
}

// BenchmarkEnergyPerOp regenerates the Section III-D microbenchmark and
// reports the recovered FP op energy (paper: ~75 pJ).
func BenchmarkEnergyPerOp(b *testing.B) {
	var fp float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.EnergyPerOp()
		if err != nil {
			b.Fatal(err)
		}
		fp = r.FPOpPJ
	}
	b.ReportMetric(fp, "FP-pJ-per-op")
}

// BenchmarkStaticExtrapolation regenerates the Section IV-B methodology
// check and reports its error.
func BenchmarkStaticExtrapolation(b *testing.B) {
	var errPct float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.StaticExtrapolation()
		if err != nil {
			b.Fatal(err)
		}
		errPct = r.ErrPct
	}
	b.ReportMetric(errPct, "extrapolation-err-%")
}

// BenchmarkAblationScoreboard, ...L2, ...ProcessNode and ...CoreCount cover
// the design-choice studies DESIGN.md calls out.
func BenchmarkAblationScoreboard(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationScoreboard(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationL2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationL2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationProcessNode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationProcessNode(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationCoreCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationCoreCount(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSimulate measures simulator throughput for one benchmark on one GPU
// with the default event-driven fast-forward clock loop. The
// simulation-result cache is disabled so the numbers keep measuring the
// simulator itself (cache replay has its own benchmark below).
func benchSimulate(b *testing.B, gpu func() *config.GPU, name string) {
	b.Helper()
	cfg := gpu()
	cfg.DisableSimCache = true
	benchSimulateCfg(b, cfg, name)
}

// benchSimulateCached measures the same workload served from the
// content-addressed result cache: an untimed priming pass fills the cache,
// so every timed iteration is a steady-state hit (hash the inputs, replay
// the stored memory image, clone the result) even when the benchmark runs
// in isolation.
func benchSimulateCached(b *testing.B, gpu func() *config.GPU, name string) {
	b.Helper()
	simr, err := core.New(gpu())
	if err != nil {
		b.Fatal(err)
	}
	f, err := bench.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := f.Make()
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range inst.Runs {
		if _, err := simr.RunKernel(r.Launch, inst.Mem, r.CMem); err != nil {
			b.Fatal(err)
		}
	}
	benchSimulateCfg(b, gpu(), name)
}

// benchSimulateDense measures the same simulation with the dense
// tick-every-cycle loop, quantifying the fast-forward speedup (the two modes
// are bit-identical in results; see the sim package's equivalence tests).
// The result cache is disabled too: a cache hit would replay the
// event-driven run's stored result and defeat the comparison.
func benchSimulateDense(b *testing.B, gpu func() *config.GPU, name string) {
	b.Helper()
	cfg := gpu()
	cfg.DenseClock = true
	cfg.DisableSimCache = true
	benchSimulateCfg(b, cfg, name)
}

func benchSimulateCfg(b *testing.B, cfg *config.GPU, name string) {
	b.Helper()
	simr, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	f, err := bench.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		inst, err := f.Make()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range inst.Runs {
			rep, err := simr.RunKernel(r.Launch, inst.Mem, r.CMem)
			if err != nil {
				b.Fatal(err)
			}
			cycles += rep.Perf.Activity.Cycles
		}
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "sim-cycles/op")
}

func BenchmarkSimVectorAddGT240(b *testing.B)    { benchSimulate(b, config.GT240, "vectorAdd") }
func BenchmarkSimBlackScholesGT240(b *testing.B) { benchSimulate(b, config.GT240, "BlackScholes") }
func BenchmarkSimMatrixMulGTX580(b *testing.B)   { benchSimulate(b, config.GTX580, "matrixMul") }
func BenchmarkSimBFSGTX580(b *testing.B)         { benchSimulate(b, config.GTX580, "bfs") }
func BenchmarkSimMergeSortGT240(b *testing.B)    { benchSimulate(b, config.GT240, "mergeSort") }

// Dense-clock counterparts: the same simulations with fast-forward disabled.
func BenchmarkSimBlackScholesGT240Dense(b *testing.B) {
	benchSimulateDense(b, config.GT240, "BlackScholes")
}
func BenchmarkSimBFSGTX580Dense(b *testing.B) { benchSimulateDense(b, config.GTX580, "bfs") }
func BenchmarkSimMatrixMulGTX580Dense(b *testing.B) {
	benchSimulateDense(b, config.GTX580, "matrixMul")
}

// Cached counterpart: the same simulation served as content-addressed cache
// hits (hash inputs, replay the stored memory image, clone the result).
func BenchmarkSimBlackScholesGT240Cached(b *testing.B) {
	benchSimulateCached(b, config.GT240, "BlackScholes")
}

// BenchmarkDVFSSweep runs the frequency/energy study on the virtual GT240.
func BenchmarkDVFSSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.DVFS()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MinEnergyScale, "min-energy-clock-scale")
	}
}

// BenchmarkAblationScheduler covers the warp-scheduling policy study the
// paper's conclusion proposes.
func BenchmarkAblationScheduler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationScheduler(); err != nil {
			b.Fatal(err)
		}
	}
}
