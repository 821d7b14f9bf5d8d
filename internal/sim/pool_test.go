package sim_test

import (
	"testing"

	"gpusimpow/internal/config"
	"gpusimpow/internal/kernel"
	"gpusimpow/internal/sim"
)

// TestPooledWarpStateIsolation drives more blocks through a small GPU than
// can be resident at once, so retired warps and block contexts recycle
// through the per-core pools many times. Block 0 poisons a register and its
// shared memory; every other block stores the same never-written register
// plus the same never-written shared word, and must observe zeros — a
// pooled warp or block context leaking state across blocks shows up as the
// poison value in a later block's output.
func TestPooledWarpStateIsolation(t *testing.T) {
	const (
		blocks  = 256
		threads = 16 // partial warp: lane masks must reset too
		poison  = 0xBEEF
	)
	b := kernel.NewBuilder("poolIsolation", 8)
	b.Params(1)
	b.SMem(4 * threads)
	// r0 = global thread id (r1, r2 scratch).
	b.SReg(0, kernel.SpecTidX)
	b.SReg(1, kernel.SpecCtaX)
	b.SReg(2, kernel.SpecNTidX)
	b.IMad(0, kernel.R(1), kernel.R(2), kernel.R(0))
	// r6 = (ctaX == 0); r2 = shared-memory offset of this thread's word.
	b.SReg(5, kernel.SpecCtaX)
	b.ISet(6, kernel.CmpEQ, kernel.R(5), kernel.I(0))
	b.SReg(1, kernel.SpecTidX)
	b.IShl(2, kernel.R(1), kernel.I(2))
	// Block 0 poisons r7 and its shared-memory word; everyone else leaves
	// both untouched and must read them back as zero.
	b.When(6).MovI(7, poison)
	b.When(6).St(kernel.SpaceShared, kernel.R(2), kernel.R(7), 0)
	b.Bar()
	b.Ld(kernel.SpaceShared, 3, kernel.R(2), 0)
	b.IAdd(3, kernel.R(3), kernel.R(7))
	// out[gtid] = r3 + r7's contribution.
	b.IShl(4, kernel.R(0), kernel.I(2))
	b.LdParam(1, 0)
	b.IAdd(4, kernel.R(4), kernel.R(1))
	b.St(kernel.SpaceGlobal, kernel.R(4), kernel.R(3), 0)
	b.Exit()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	// Cores are stepped by a single worker; the subtest keeps the name it
	// had when the worker count was a configuration knob.
	t.Run("workers=1", func(t *testing.T) {
		g, err := sim.New(config.GT240())
		if err != nil {
			t.Fatal(err)
		}
		mem := kernel.NewGlobalMem()
		const outBase = 0x1000
		for i := 0; i < blocks*threads; i++ {
			mem.Write32(outBase+uint32(4*i), 0xDEADDEAD)
		}
		l := &kernel.Launch{
			Prog:   prog,
			Grid:   kernel.Dim{X: blocks, Y: 1},
			Block:  kernel.Dim{X: threads, Y: 1},
			Params: []uint32{outBase},
		}
		if _, err := g.Run(l, mem, nil); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < blocks*threads; i++ {
			want := uint32(0)
			if i < threads { // block 0 sees its own poison twice
				want = 2 * poison
			}
			if got := mem.Read32(outBase + uint32(4*i)); got != want {
				t.Fatalf("thread %d (block %d): out = %#x, want %#x — pooled state leaked across blocks",
					i, i/threads, got, want)
			}
		}
	})
}
