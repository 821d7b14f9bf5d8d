// Command perfbench is the repository's benchmark: one program that drives
// the simulator's layers through their public functions, checks every
// output, and prints every metric by name and unit. See README.md in this
// directory for the workloads, the metrics and how they relate.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload lone-sim --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runCtx is what every workload receives.
type runCtx struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// tr records spans in the traced run; it is disabled otherwise.
	tr *tracer
	// scratch is a private directory inside the checkout for state the
	// workload writes (service journals, the simcache spill).
	scratch string
	// startup is the time from process start to main: exec, the Go
	// runtime and every package's init (the experiments registry among
	// them). It happens once per process, so set-up adds it to the median
	// of its repetitions.
	startup time.Duration
}

// rng returns a generator derived from the seed and a stream number, so
// each consumer of randomness gets an independent deterministic stream.
func (rc *runCtx) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(rc.seed), stream))
}

// result is a workload's outcome: checked operations and metric values
// keyed by the names in BENCHMARK.json.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	// notes are human-readable lines printed before the JSON result.
	notes []string
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(*runCtx) (*result, error){
	"lone-sim":     runLoneSim,
	"sweep-cold":   runSweepCold,
	"service-warm": runServiceWarm,
}

// metricDef is one metric declared in BENCHMARK.json.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkFile struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	entered := time.Now()
	code, err := run(entered)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(entered time.Time) (int, error) {
	workload := flag.String("workload", "", "workload to run: lone-sim, sweep-cold or service-warm")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "seconds to measure")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	startUS := flag.Int64("start-us", 0, "Unix time in microseconds at which the process was started (run.sh passes it)")
	flag.Parse()

	runWorkload, ok := workloads[*workload]
	startup := entered.Sub(time.UnixMicro(*startUS))
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || *startUS <= 0 || startup < 0 {
		return 2, fmt.Errorf("usage: --workload lone-sim|sweep-cold|service-warm --seed N --seconds N --trace 0|1 --start-us N")
	}
	if err := checkEnv(os.Environ()); err != nil {
		return 2, err
	}
	var defs benchmarkFile
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return 2, fmt.Errorf("run from the repository root: %w", err)
	}
	if err := json.Unmarshal(b, &defs); err != nil {
		return 2, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	scratch, err := filepath.Abs(filepath.Join(".bench_build", "perfbench", fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid())))
	if err != nil {
		return 2, err
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return 2, err
	}
	defer os.RemoveAll(scratch)

	host := fingerprint(*seed)
	rc := &runCtx{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, tr: newTracer(*trace == 1), scratch: scratch,
		startup: startup,
	}
	steal0, total0, stealErr := cpuTicks()
	res, err := runWorkload(rc)
	if err != nil {
		return 2, fmt.Errorf("%s: %w", *workload, err)
	}
	// A virtual machine's stolen CPU time slows every timing; it explains
	// runs that come out slow as a whole.
	if steal1, total1, err := cpuTicks(); stealErr == nil && err == nil && total1 > total0 {
		res.notef("host: %.1f%% of the machine's CPU time was stolen during the run",
			100*float64(steal1-steal0)/float64(total1-total0))
	}
	if res.attempted < 1 {
		return 2, errors.New("no operation attempted")
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return 2, fmt.Errorf("peak RSS: %w", err)
	}
	res.metrics["peak_rss_mb"] = rss
	res.metrics["check.failed_frac"] = float64(res.failed) / float64(res.attempted)

	want := defs.EndToEnd
	if rc.trace {
		want = defs.PerLayer
	}
	line := resultLine{
		Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]metricOut{},
	}
	declared := map[string]bool{}
	for _, d := range append(defs.EndToEnd, defs.PerLayer...) {
		declared[d.Name] = true
	}
	for name := range res.metrics {
		if !declared[name] {
			return 2, fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
	var idle []string
	for _, d := range want {
		v, ok := res.metrics[d.Name]
		if !ok {
			// Every workload measures every end-to-end metric; a layer the
			// workload does not call reads 0.
			if !rc.trace {
				return 2, fmt.Errorf("metric %s declared in BENCHMARK.json was not measured", d.Name)
			}
			idle = append(idle, d.Name)
		}
		line.Metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
	}
	if len(idle) > 0 {
		res.notef("not reached by this workload (0): %s", strings.Join(idle, " "))
	}
	out, err := json.Marshal(line)
	if err != nil {
		return 2, err
	}

	hb, _ := json.Marshal(host) // a struct of strings and ints always marshals
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d\n", *workload, *seed, *seconds, *trace)
	fmt.Printf("host: %s\n", hb)
	for _, n := range res.notes {
		fmt.Println(n)
	}
	if err := writeArtifacts(rc, host, *workload, out); err != nil {
		return 2, err
	}
	fmt.Println(string(out))
	if res.failed > 0 {
		return 1, fmt.Errorf("%d of %d operations failed their output check", res.failed, res.attempted)
	}
	return 0, nil
}

// writeArtifacts keeps the result line, the host fingerprint and, in the
// traced run, every span under .bench_build/perfbench/results.
func writeArtifacts(rc *runCtx, host hostInfo, workload string, line []byte) error {
	dir := filepath.Join(filepath.Dir(rc.scratch), "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%t", workload, rc.seed, rc.trace))
	rec := struct {
		Host   hostInfo        `json:"host"`
		Result json.RawMessage `json:"result"`
	}{host, line}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := os.WriteFile(stem+".json", b, 0o644); err != nil {
		return err
	}
	if rc.trace {
		return rc.tr.write(stem+".spans.json", host)
	}
	return nil
}

// checkEnv refuses GPUSIMPOW_* overrides: each one silently changes the
// program being measured (worker count, cache, spill directory, budget,
// injected faults).
func checkEnv(environ []string) error {
	var set []string
	for _, kv := range environ {
		if k, _, _ := strings.Cut(kv, "="); strings.HasPrefix(k, "GPUSIMPOW_") {
			set = append(set, k)
		}
	}
	if len(set) > 0 {
		sort.Strings(set)
		return fmt.Errorf("refusing to run with %s set: the benchmark measures the default configuration", strings.Join(set, ", "))
	}
	return nil
}

// timed runs fn repeatedly while the budget lasts (at least once) and
// returns the wall time spent.
func timed(budget time.Duration, fn func(i int) error) (time.Duration, error) {
	t0 := time.Now()
	for i := 0; i == 0 || time.Since(t0) < budget; i++ {
		if err := fn(i); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// setupReps repeats a workload's set-up, keeping the last repetition's
// state, and returns setup_s: the process's startup plus the median
// repetition, in seconds. The garbage of earlier repetitions is collected
// before each one, so it neither slows the next nor raises the peak
// resident memory the run reports.
func (rc *runCtx) setupReps(res *result, reps int, fn func() error) error {
	var ds []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := fn(); err != nil {
			return err
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	res.metrics["setup_s"] = rc.startup.Seconds() + median(ds)
	res.notef("setup: %.4f s = startup %.4f s (process start to main) + median %.4f s of %d set-ups %v",
		res.metrics["setup_s"], rc.startup.Seconds(), median(ds), reps, ds)
	return nil
}
