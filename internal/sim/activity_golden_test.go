package sim_test

// The activity golden pins every Activity counter of every suite launch,
// under every scheduling policy, to the values a known-good simulator
// produced. Dense ≡ fast-forward equivalence cannot catch a drift in the
// issue-side counters (SchedArbs, SBSearches) because both clock loops run
// the same issue code; this file can.

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpusimpow/internal/bench"
	"gpusimpow/internal/config"
	"gpusimpow/internal/sim"
)

var updateActivity = flag.Bool("update", false, "rewrite testdata/activity.golden")

const activityGolden = "testdata/activity.golden"

// wideGTX580 is the mask-edge configuration: a full 64-slot warp mask split
// over three schedulers, so no scheduler's class is a power-of-two stride.
func wideGTX580() *config.GPU {
	g := config.GTX580()
	g.Name = "GTX580w64s3"
	g.MaxWarpsPerCore = 64
	g.MaxThreadsPerCore = 2048
	g.Schedulers = 3
	g.RegsPerCore *= 2
	return g
}

// activityLines simulates every launch of every suite benchmark on every
// golden configuration and policy, returning one "config/policy/bench/run
// sha256" line per launch.
func activityLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, mk := range []func() *config.GPU{config.GT240, config.GTX580, wideGTX580} {
		for _, policy := range []string{sim.PolicyRR, sim.PolicyGTO, sim.PolicyTwoLevel} {
			cfg := mk()
			cfg.SchedulerPolicy = policy
			g, err := sim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range bench.Suite() {
				inst, err := f.Make()
				if err != nil {
					t.Fatal(err)
				}
				for i, r := range inst.Runs {
					res, err := g.Run(r.Launch, inst.Mem, r.CMem)
					if err != nil {
						t.Fatalf("%s/%s/%s: %v", cfg.Name, policy, r.Name, err)
					}
					sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", res.Activity)))
					lines = append(lines, fmt.Sprintf("%s/%s/%s/%d:%s %x", cfg.Name, policy, f.Name, i, r.Name, sum))
				}
			}
		}
	}
	return lines
}

func TestActivityGolden(t *testing.T) {
	got := activityLines(t)
	path := filepath.FromSlash(activityGolden)
	if *updateActivity {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d launches simulated, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("activity drift:\n got: %s\nwant: %s", got[i], want[i])
		}
	}
}
