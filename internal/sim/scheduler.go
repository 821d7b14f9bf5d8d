package sim

import (
	"math/bits"
	"sort"
)

// Warp scheduling policies. The paper's baseline is the rotating-priority
// (round-robin) scheduler of Section III-C1; its conclusion proposes
// studying "two-level scheduling" and similar mechanisms "from a power
// perspective", so the simulator supports three policies:
//
//	rr        rotating priority over all in-flight warps (default)
//	gto       greedy-then-oldest: keep issuing the same warp until it
//	          stalls, then fall back to the oldest ready warp
//	twolevel  Narasiman et al.: a small active set is scheduled
//	          round-robin; warps that stall on memory are swapped out for
//	          pending warps. The smaller active set needs a narrower
//	          priority encoder, which is precisely its power appeal.
const (
	PolicyRR       = "rr"
	PolicyGTO      = "gto"
	PolicyTwoLevel = "twolevel"
)

// candidateOrder fills buf with the slot indices scheduler `sched` should
// consider this cycle, in priority order.
func (g *gpuSim) candidateOrder(c *coreState, sched int, buf []int) []int {
	buf = buf[:0]

	// cand is the issuable mask restricted to this scheduler's slots; every
	// policy iterates its set bits in ascending slot order.
	cand := c.issuable & c.schedMask[sched]
	if cand == 0 {
		return buf
	}

	switch g.policy {
	case PolicyGTO:
		// Greedy: last-issued warp first, then the others oldest first.
		last := c.lastIssued[sched]
		if last >= 0 && cand&(1<<last) != 0 {
			buf = append(buf, last)
		}
		for m := cand; m != 0; m &= m - 1 {
			if i := bits.TrailingZeros64(m); i != last {
				buf = append(buf, i)
			}
		}
		rest := buf
		if len(buf) > 0 && buf[0] == last {
			rest = buf[1:]
		}
		sort.Slice(rest, func(a, b int) bool {
			return c.slots[rest[a]].ageStamp < c.slots[rest[b]].ageStamp
		})
		return buf

	case PolicyTwoLevel:
		// Active set: the K oldest issuable warps not waiting on memory.
		// The two sets live in reusable per-core buffers.
		k := g.activeSet
		active, pending := c.tlActive[:0], c.tlPend[:0]
		for m := cand; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			if c.slots[i].memPending > 0 {
				pending = append(pending, i)
			} else {
				active = append(active, i)
			}
		}
		sort.Slice(active, func(a, b int) bool {
			return c.slots[active[a]].ageStamp < c.slots[active[b]].ageStamp
		})
		if len(active) > k {
			pending = append(pending, active[k:]...)
			active = active[:k]
		}
		// Round-robin within the active set, then the pending warps.
		start := 0
		for i, s := range active {
			if s >= c.issueRR[sched] {
				start = i
				break
			}
		}
		for i := 0; i < len(active); i++ {
			buf = append(buf, active[(start+i)%len(active)])
		}
		buf = append(buf, pending...)
		c.tlActive, c.tlPend = active, pending
		return buf

	default: // PolicyRR
		// Rotating priority: this scheduler's candidates at or after its
		// first slot at or past the priority pointer, ascending, then the
		// wrapped remainder. The class has no members in [rr, first), so
		// cand&^hi is exactly the class's candidates below rr.
		S := c.cfg.Schedulers
		rr := c.issueRR[sched]
		if rr >= len(c.slots) {
			rr = 0
		}
		first := rr + ((sched-rr)%S+S)%S
		hi := cand >> first << first // Go shifts of 64 or more yield 0
		for m := hi; m != 0; m &= m - 1 {
			buf = append(buf, bits.TrailingZeros64(m))
		}
		for m := cand &^ hi; m != 0; m &= m - 1 {
			buf = append(buf, bits.TrailingZeros64(m))
		}
		return buf
	}
}
