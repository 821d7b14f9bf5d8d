package sim

import "math/bits"

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

// Each policy's picker returns the issuing slot (-1 if none) and the slots
// of elig its priority order visits up to and including that slot (all of
// elig when nothing can issue); issueStage derives the scheduler's
// scoreboard searches and structural wake-up from that set. elig is the
// scheduler's issuable slots minus those fetched this cycle, and pick, a
// subset of elig, the ones that may issue now (ready with a free unit).

// rrPick is the rotating-priority order: the slots at or after the
// scheduler's priority pointer, ascending, then the wrapped remainder
// (elig holds this scheduler's slots only, so starting at the pointer is
// starting at its first own slot at or past it). The winner is a
// trailing-zero count, the visited set two masks.
func (c *coreState) rrPick(sched int, elig, pick uint64) (int, uint64) {
	hi := ^uint64(0) << c.issueRR[sched]
	if m := pick & hi; m != 0 {
		w := bits.TrailingZeros64(m)
		return w, elig & hi & (^uint64(0) >> (63 - w))
	}
	if pick != 0 {
		w := bits.TrailingZeros64(pick)
		return w, elig & (hi | ^uint64(0)>>(63-w))
	}
	return -1, elig
}

// gtoPick is greedy-then-oldest: the scheduler's last-issued warp first,
// then the others oldest first.
func (c *coreState) gtoPick(sched int, elig, pick uint64) (int, uint64) {
	var visited uint64
	if last := c.lastIssued[sched]; last >= 0 && elig&(1<<last) != 0 {
		visited = 1 << last
		if pick&visited != 0 {
			return last, visited
		}
	}
	return walkOrder(c.byAge, elig, pick, visited)
}

// twoLevelPick is Narasiman et al.'s two-level order. The active set is the
// k oldest of cand (the scheduler's issuable slots, including those fetched
// this cycle) not waiting on memory, taken round-robin from the priority
// pointer; then the pending warps: the memory waiters in slot order, then
// the active set's overflow oldest first.
func (c *coreState) twoLevelPick(sched, k int, cand, elig, pick uint64) (int, uint64) {
	running := cand &^ c.memWait
	active := c.tlActive[:0]
	overflow := len(c.byAge)
	for j, i := range c.byAge {
		if running&(1<<i) == 0 {
			continue
		}
		if len(active) == k {
			overflow = j
			break
		}
		active = append(active, i)
	}
	c.tlActive = active

	start := 0
	for i, s := range active {
		if s >= c.issueRR[sched] {
			start = i
			break
		}
	}
	win, visited := walkOrder(active[start:], elig, pick, 0)
	if win < 0 {
		win, visited = walkOrder(active[:start], elig, pick, visited)
	}
	if win >= 0 {
		return win, visited
	}
	if wait := cand & c.memWait; wait != 0 {
		if m := pick & wait; m != 0 {
			w := bits.TrailingZeros64(m)
			return w, visited | elig&wait&(^uint64(0)>>(63-w))
		}
		visited |= elig & wait
	}
	return walkOrder(c.byAge[overflow:], elig, pick, visited)
}

// walkOrder visits the slots of order that are in elig but not yet in
// visited, adding each to visited, and stops at the first one in pick.
func walkOrder(order []int, elig, pick, visited uint64) (int, uint64) {
	for _, i := range order {
		bit := uint64(1) << i
		if elig&^visited&bit == 0 {
			continue
		}
		visited |= bit
		if pick&bit != 0 {
			return i, visited
		}
	}
	return -1, visited
}
