// Package sim seeds one violation of each determinism rule, plus the
// clean idioms (waiver, collect-then-sort, method-mediated field read)
// that must NOT be flagged.
package sim

import (
	"math/rand"
	"sort"
	"time"

	"fixturemod/internal/config"
)

// Run trips timingpartition (power-only and unclassified reads),
// detrange (unsorted map range) and nowallclock (time.Now, global rand).
func Run(cfg *config.GPU, counts map[string]int) float64 {
	total := float64(cfg.NumCores()) * cfg.CoreClockMHz
	total += cfg.ProcessNM // power-only field read on the timing side
	if cfg.DebugLabel != "" {
		total++
	}
	for _, v := range counts { // unsorted map iteration
		total += float64(v)
	}
	seen := map[string]bool{}
	for k := range counts { //gpowlint:unordered pure membership, order-free
		seen[k] = true
	}
	var keys []string
	for k := range counts { // collect-then-sort: clean
		keys = append(keys, k)
	}
	sort.Strings(keys)
	total += float64(len(keys) + len(seen))
	total += float64(time.Now().Nanosecond())
	total += rand.Float64()
	return total
}

// mergeShards sums per-shard totals with a value-only range over a map:
// the floating-point total still depends on Go's randomized map order, so
// detrange must flag a range that never names the key just as it flags one
// that does.
func mergeShards(shards map[int]float64) float64 {
	var total float64
	for _, shard := range shards { // unsorted shard merge
		total += shard
	}
	return total
}

var _ = mergeShards
