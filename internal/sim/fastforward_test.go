package sim_test

// Equivalence tests for the event-driven fast-forward clock loop: skipping
// quiescent cycles must be bit-identical to the dense tick-every-cycle loop
// in every activity counter, in the headline results derived from them, and
// in the functional global-memory image.

import (
	"reflect"
	"testing"

	"gpusimpow/internal/bench"
	"gpusimpow/internal/config"
	"gpusimpow/internal/sim"
)

// runSuiteMode executes every launch of the named benchmark on cfg and
// returns the per-launch results plus the final global-memory words.
func runSuiteMode(t *testing.T, cfg *config.GPU, benchName string) ([]*sim.Result, []uint32) {
	t.Helper()
	g, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := bench.ByName(benchName)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := f.Make()
	if err != nil {
		t.Fatal(err)
	}
	var results []*sim.Result
	for _, r := range inst.Runs {
		res, err := g.Run(r.Launch, inst.Mem, r.CMem)
		if err != nil {
			t.Fatalf("%s/%s: %v", benchName, r.Name, err)
		}
		results = append(results, res)
	}
	if err := inst.Verify(); err != nil {
		t.Fatalf("%s failed functional verification: %v", benchName, err)
	}
	words := make([]uint32, inst.Mem.Size()/4)
	for i := range words {
		words[i] = inst.Mem.Read32(uint32(4 * i))
	}
	return results, words
}

func TestFastForwardEquivalence(t *testing.T) {
	cases := []struct {
		gpu    func() *config.GPU
		policy string
		bench  string
	}{
		{config.GT240, "", "vectorAdd"},
		{config.GT240, "", "BlackScholes"},
		{config.GT240, "", "bfs"},
		{config.GT240, "", "mergeSort"},
		{config.GTX580, "", "vectorAdd"},
		{config.GTX580, "", "BlackScholes"},
		{config.GTX580, "", "bfs"},
		{config.GTX580, "", "mergeSort"},
		// Non-default scheduling policies exercise different candidate
		// orderings and arbitration counts during stalls. GT240 has no
		// scoreboard, so its cases cover the blocking-issue hazard (any
		// outstanding instruction stalls the warp) under age order.
		{config.GT240, sim.PolicyGTO, "bfs"},
		{config.GT240, sim.PolicyTwoLevel, "bfs"},
		{config.GT240, sim.PolicyGTO, "mergeSort"},
		{config.GT240, sim.PolicyTwoLevel, "mergeSort"},
		{config.GTX580, sim.PolicyGTO, "vectorAdd"},
		{config.GTX580, sim.PolicyTwoLevel, "vectorAdd"},
		{config.GTX580, sim.PolicyGTO, "bfs"},
		{config.GTX580, sim.PolicyTwoLevel, "bfs"},
	}
	for _, tc := range cases {
		fast := tc.gpu()
		fast.SchedulerPolicy = tc.policy
		dense := tc.gpu()
		dense.SchedulerPolicy = tc.policy
		dense.DenseClock = true

		name := fast.Name + "/" + tc.bench
		if tc.policy != "" {
			name += "/" + tc.policy
		}
		t.Run(name, func(t *testing.T) {
			fastRes, fastMem := runSuiteMode(t, fast, tc.bench)
			denseRes, denseMem := runSuiteMode(t, dense, tc.bench)

			if len(fastRes) != len(denseRes) {
				t.Fatalf("launch counts differ: %d vs %d", len(fastRes), len(denseRes))
			}
			for i := range fastRes {
				if !reflect.DeepEqual(fastRes[i].Activity, denseRes[i].Activity) {
					t.Errorf("launch %d: activity counters diverge:\nfast:  %+v\ndense: %+v",
						i, fastRes[i].Activity, denseRes[i].Activity)
				} else if !reflect.DeepEqual(fastRes[i], denseRes[i]) {
					// Activity matched but a derived headline number didn't.
					t.Errorf("launch %d: derived results diverge:\nfast:  %+v\ndense: %+v",
						i, fastRes[i], denseRes[i])
				}
			}
			if !reflect.DeepEqual(fastMem, denseMem) {
				t.Error("global memory images diverge between fast-forward and dense mode")
			}
		})
	}
}

// TestFastForwardSkips guards the optimization itself: on a memory-bound
// kernel the event-driven loop must actually be exercised (the equivalence
// test above would pass vacuously if fast-forward never engaged). We can't
// observe skip counts from outside the package, so this asserts the
// precondition instead: long stalls exist, i.e. issued instructions are far
// fewer than elapsed cycles summed over cores.
func TestFastForwardSkips(t *testing.T) {
	res, _ := runSuiteMode(t, config.GT240(), "vectorAdd")
	a := res[0].Activity
	if a.Cycles == 0 || a.IssuedInstrs == 0 {
		t.Fatal("degenerate run")
	}
	if float64(a.IssuedInstrs) > 0.5*float64(a.Cycles)*float64(len(a.CoreBusyCycles)) {
		t.Skip("kernel not stall-bound on this configuration")
	}
}
