package kernel

import (
	"fmt"
	"math"
	"math/bits"
)

// Token is one entry of the per-warp reconvergence stack: an execution PC,
// the reconvergence PC at which this control-flow path merges back, and the
// active mask of lanes following the path (paper Fig. 2, after the Coon &
// Lindholm patent).
type Token struct {
	PC     int
	Reconv int // merge PC; -1 for the bottom-of-stack token
	Mask   uint32
}

// BlockCtx identifies a thread block within a launch.
type BlockCtx struct {
	CtaX, CtaY int
	Launch     *Launch
	// Shared is the block's shared-memory image (word-addressed).
	Shared []uint32
}

// NewBlockCtx prepares the execution context of one block.
func NewBlockCtx(l *Launch, ctaX, ctaY int) *BlockCtx {
	return &BlockCtx{
		CtaX: ctaX, CtaY: ctaY, Launch: l,
		Shared: make([]uint32, (l.SMemBytes()+3)/4),
	}
}

// Reset repoints a recycled block context at a new block, zeroing the
// shared-memory image. The simulator pools contexts per core so
// steady-state block turnover stops allocating; a context must never carry
// shared-memory state from the block that previously owned it (pinned by
// the sim package's pooled-state aliasing test).
func (b *BlockCtx) Reset(l *Launch, ctaX, ctaY int) {
	b.CtaX, b.CtaY, b.Launch = ctaX, ctaY, l
	need := (l.SMemBytes() + 3) / 4
	if cap(b.Shared) >= need {
		b.Shared = b.Shared[:need]
		clear(b.Shared)
	} else {
		b.Shared = make([]uint32, need)
	}
}

// Env bundles the memories a warp needs during execution.
type Env struct {
	Global *GlobalMem
	Const  *ConstMem
	Block  *BlockCtx
}

// Warp is the architectural state of one warp: per-lane registers and the
// reconvergence stack.
type Warp struct {
	// IDInBlock is the warp's index within its block.
	IDInBlock int
	// Regs holds NumRegs*WarpSize registers, lane-major: register r of lane
	// l is Regs[r*WarpSize+l].
	Regs []uint32
	// Stack is the reconvergence stack; the top is the last element.
	Stack []Token
	// AtBarrier is set while the warp waits at a block barrier.
	AtBarrier bool
	// Finished is set when all lanes have exited.
	Finished bool
	// initialMask covers the lanes that actually hold threads (the last
	// warp of a block may be partial).
	initialMask uint32
}

// NewWarp creates a warp with the given number of live lanes (1..WarpSize).
func NewWarp(idInBlock, liveLanes, numRegs int) *Warp {
	if liveLanes <= 0 || liveLanes > WarpSize {
		panic(fmt.Sprintf("kernel: warp with %d lanes", liveLanes))
	}
	var mask uint32
	if liveLanes == WarpSize {
		mask = FullMask
	} else {
		mask = (uint32(1) << liveLanes) - 1
	}
	return &Warp{
		IDInBlock:   idInBlock,
		Regs:        make([]uint32, numRegs*WarpSize),
		Stack:       []Token{{PC: 0, Reconv: -1, Mask: mask}},
		initialMask: mask,
	}
}

// Reset reinitialises a recycled warp to NewWarp's state: registers
// zeroed, a single bottom-of-stack token, flags cleared. The simulator
// pools warps per core; recycled register files and token stacks must be
// indistinguishable from fresh ones (pinned by the sim package's
// pooled-state aliasing test).
func (w *Warp) Reset(idInBlock, liveLanes, numRegs int) {
	if liveLanes <= 0 || liveLanes > WarpSize {
		panic(fmt.Sprintf("kernel: warp with %d lanes", liveLanes))
	}
	var mask uint32
	if liveLanes == WarpSize {
		mask = FullMask
	} else {
		mask = (uint32(1) << liveLanes) - 1
	}
	w.IDInBlock = idInBlock
	if len(w.Regs) == numRegs*WarpSize {
		clear(w.Regs)
	} else {
		w.Regs = make([]uint32, numRegs*WarpSize)
	}
	w.Stack = append(w.Stack[:0], Token{PC: 0, Reconv: -1, Mask: mask})
	w.AtBarrier = false
	w.Finished = false
	w.initialMask = mask
}

// Top returns the active token. Panics if the warp has finished.
func (w *Warp) Top() *Token { return &w.Stack[len(w.Stack)-1] }

// PC returns the current program counter.
func (w *Warp) PC() int { return w.Top().PC }

// ActiveMask returns the current lane mask.
func (w *Warp) ActiveMask() uint32 { return w.Top().Mask }

// StackDepth returns the reconvergence-stack depth.
func (w *Warp) StackDepth() int { return len(w.Stack) }

// reg returns a pointer to register r of lane l.
func (w *Warp) reg(r uint8, l int) *uint32 { return &w.Regs[int(r)*WarpSize+l] }

// SetReg sets register r of lane l (host-side initialisation in tests).
func (w *Warp) SetReg(r, l int, v uint32) { *w.reg(uint8(r), l) = v }

// GetReg reads register r of lane l.
func (w *Warp) GetReg(r, l int) uint32 { return *w.reg(uint8(r), l) }

// StepInfo reports what one instruction execution did; the cycle-level
// simulator converts it into timing and activity.
type StepInfo struct {
	// Instr is the executed instruction.
	Instr *Instr
	// PC is the program counter the instruction was fetched from.
	PC int
	// ExecMask is the set of lanes that performed the operation (active mask
	// AND predicate).
	ExecMask uint32
	// ActiveLanes is the popcount of ExecMask.
	ActiveLanes int
	// Addrs holds, for memory operations, the byte address accessed by each
	// executing lane (indexed by lane; only lanes in ExecMask are valid).
	Addrs [WarpSize]uint32
	// Diverged is set when a branch split the warp.
	Diverged bool
	// Reconverged counts stack pops performed after this instruction.
	Reconverged int
	// Finished is set when the warp fully exited.
	Finished bool
	// AtBarrier is set when the warp stopped at a barrier.
	AtBarrier bool
}

// operand fetches the value of operand o for lane l.
func (w *Warp) operand(o Operand, l int, env *Env) uint32 {
	switch o.Kind {
	case KindReg:
		return *w.reg(o.Reg, l)
	case KindImm:
		return o.Imm
	case KindSpecial:
		b := env.Block
		launch := b.Launch
		tid := w.IDInBlock*WarpSize + l
		switch o.Special {
		case SpecTidX:
			return uint32(tid % launch.Block.X)
		case SpecTidY:
			return uint32(tid / launch.Block.X)
		case SpecNTidX:
			return uint32(launch.Block.X)
		case SpecNTidY:
			return uint32(launch.Block.Y)
		case SpecCtaX:
			return uint32(b.CtaX)
		case SpecCtaY:
			return uint32(b.CtaY)
		case SpecNCtaX:
			return uint32(launch.Grid.X)
		case SpecNCtaY:
			return uint32(launch.Grid.Y)
		case SpecLane:
			return uint32(l)
		case SpecWarpInBlock:
			return uint32(w.IDInBlock)
		}
	}
	return 0
}

// Exec executes the warp's current instruction functionally and advances
// control flow. It returns a StepInfo for the timing model. Calling Exec on
// a finished warp or one waiting at a barrier is a programming error.
func (w *Warp) Exec(p *Program, env *Env) (StepInfo, error) {
	if w.Finished {
		return StepInfo{}, fmt.Errorf("kernel %s: exec on finished warp", p.Name)
	}
	if w.AtBarrier {
		return StepInfo{}, fmt.Errorf("kernel %s: exec on warp at barrier", p.Name)
	}
	top := w.Top()
	pc := top.PC
	if pc < 0 || pc >= len(p.Instrs) {
		return StepInfo{}, fmt.Errorf("kernel %s: pc %d out of range (missing exit?)", p.Name, pc)
	}
	in := &p.Instrs[pc]
	d := &p.Decoded()[pc]
	info := StepInfo{Instr: in, PC: pc}

	// Predicate resolution: build the set-lane mask branch-free over the
	// contiguous predicate-register row, then mask with the active lanes
	// (reading an inactive lane's predicate is harmless).
	execMask := top.Mask
	if d.predOff >= 0 {
		preds := w.Regs[d.predOff : d.predOff+WarpSize]
		var pm uint32
		for l, v := range preds {
			var bit uint32
			if v != 0 {
				bit = 1
			}
			pm |= bit << l
		}
		if in.PredNeg {
			pm = ^pm
		}
		execMask = top.Mask & pm
	}
	info.ExecMask = execMask
	info.ActiveLanes = bits.OnesCount32(execMask)

	switch in.Op {
	case OpBra:
		w.execBranch(in, execMask, &info)
	case OpExit:
		// Remove executing lanes from every stack level.
		for i := range w.Stack {
			w.Stack[i].Mask &^= execMask
		}
		top.PC++
		w.popEmptyAndMerged(&info)
	case OpBar:
		if execMask != 0 {
			w.AtBarrier = true
			info.AtBarrier = true
		}
		top.PC++
		w.popMerged(&info)
	default:
		var err error
		if d.fast {
			err = w.execDataFast(in, d, execMask, env, &info)
		} else {
			err = w.execData(in, execMask, env, &info)
		}
		if err != nil {
			return info, err
		}
		top.PC++
		w.popMerged(&info)
	}

	if len(w.Stack) == 0 || w.Top().Mask == 0 && len(w.Stack) == 1 {
		w.Finished = true
		info.Finished = true
	}
	return info, nil
}

// execBranch implements the stack-based divergence mechanism.
func (w *Warp) execBranch(in *Instr, takenMask uint32, info *StepInfo) {
	top := w.Top()
	notTaken := top.Mask &^ takenMask
	switch {
	case takenMask == 0: // uniform fall-through
		top.PC++
	case notTaken == 0: // uniform taken
		top.PC = in.Target
	default: // divergence
		info.Diverged = true
		fallPC := top.PC + 1
		// The current token becomes the reconvergence continuation.
		top.PC = in.Reconv
		// A token whose PC already equals its reconvergence point would pop
		// without executing anything, so it is never materialised; this keeps
		// the stack depth bounded by the nesting depth rather than by the
		// number of divergent loop iterations.
		if top.Reconv >= 0 && top.PC == top.Reconv {
			w.Stack = w.Stack[:len(w.Stack)-1]
		}
		if fallPC != in.Reconv {
			w.Stack = append(w.Stack, Token{PC: fallPC, Reconv: in.Reconv, Mask: notTaken})
		}
		if in.Target != in.Reconv {
			w.Stack = append(w.Stack, Token{PC: in.Target, Reconv: in.Reconv, Mask: takenMask})
		}
	}
	w.popMerged(info)
}

// popMerged pops tokens whose PC reached their reconvergence point.
func (w *Warp) popMerged(info *StepInfo) {
	for len(w.Stack) > 1 {
		t := w.Top()
		if t.Reconv >= 0 && t.PC == t.Reconv {
			w.Stack = w.Stack[:len(w.Stack)-1]
			info.Reconverged++
			continue
		}
		if t.Mask == 0 {
			w.Stack = w.Stack[:len(w.Stack)-1]
			info.Reconverged++
			continue
		}
		break
	}
}

// popEmptyAndMerged additionally drops empty tokens after an Exit.
func (w *Warp) popEmptyAndMerged(info *StepInfo) {
	w.popMerged(info)
	for len(w.Stack) > 1 && w.Top().Mask == 0 {
		w.Stack = w.Stack[:len(w.Stack)-1]
		info.Reconverged++
		w.popMerged(info)
	}
}

// ReleaseBarrier resumes a warp stopped at a barrier.
func (w *Warp) ReleaseBarrier() { w.AtBarrier = false }

// execData executes a non-control instruction for all lanes in execMask,
// iterating set bits directly (lanes ascend, so lane-ordered effects such as
// AtomAdd are unchanged) instead of testing all WarpSize lanes.
func (w *Warp) execData(in *Instr, execMask uint32, env *Env, info *StepInfo) error {
	for rem := execMask; rem != 0; rem &= rem - 1 {
		l := bits.TrailingZeros32(rem)
		a := uint32(0)
		if in.NumSrc > 0 {
			a = w.operand(in.Src[0], l, env)
		}
		b := uint32(0)
		if in.NumSrc > 1 {
			b = w.operand(in.Src[1], l, env)
		}
		c := uint32(0)
		if in.NumSrc > 2 {
			c = w.operand(in.Src[2], l, env)
		}

		var d uint32
		switch in.Op {
		case OpNop:
			continue
		case OpMov:
			d = a
		case OpIAdd:
			d = a + b
		case OpISub:
			d = a - b
		case OpIMul:
			d = a * b
		case OpIMad:
			d = a*b + c
		case OpIMin:
			if int32(a) < int32(b) {
				d = a
			} else {
				d = b
			}
		case OpIMax:
			if int32(a) > int32(b) {
				d = a
			} else {
				d = b
			}
		case OpIAnd:
			d = a & b
		case OpIOr:
			d = a | b
		case OpIXor:
			d = a ^ b
		case OpINot:
			d = ^a
		case OpIShl:
			d = a << (b & 31)
		case OpIShr:
			d = a >> (b & 31)
		case OpISra:
			d = uint32(int32(a) >> (b & 31))
		case OpISet:
			d = boolTo32(cmpI(in.Cmp, int32(a), int32(b)))
		case OpISel:
			if a != 0 {
				d = b
			} else {
				d = c
			}
		case OpFAdd:
			d = f2b(b2f(a) + b2f(b))
		case OpFSub:
			d = f2b(b2f(a) - b2f(b))
		case OpFMul:
			d = f2b(b2f(a) * b2f(b))
		case OpFFma:
			d = f2b(float32(float64(b2f(a))*float64(b2f(b)) + float64(b2f(c))))
		case OpFMin:
			d = f2b(float32(math.Min(float64(b2f(a)), float64(b2f(b)))))
		case OpFMax:
			d = f2b(float32(math.Max(float64(b2f(a)), float64(b2f(b)))))
		case OpFNeg:
			d = f2b(-b2f(a))
		case OpFAbs:
			d = f2b(float32(math.Abs(float64(b2f(a)))))
		case OpFSet:
			d = boolTo32(cmpF(in.Cmp, b2f(a), b2f(b)))
		case OpI2F:
			d = f2b(float32(int32(a)))
		case OpF2I:
			d = uint32(int32(b2f(a)))
		case OpRcp:
			d = f2b(1 / b2f(a))
		case OpRsq:
			d = f2b(float32(1 / math.Sqrt(float64(b2f(a)))))
		case OpSqrt:
			d = f2b(float32(math.Sqrt(float64(b2f(a)))))
		case OpSin:
			d = f2b(float32(math.Sin(float64(b2f(a)))))
		case OpCos:
			d = f2b(float32(math.Cos(float64(b2f(a)))))
		case OpEx2:
			d = f2b(float32(math.Exp2(float64(b2f(a)))))
		case OpLg2:
			d = f2b(float32(math.Log2(float64(b2f(a)))))
		case OpLd, OpSt, OpAtomAdd:
			addr := a + uint32(in.Offset)
			info.Addrs[l] = addr
			switch in.Op {
			case OpLd:
				v, err := w.load(in.Space, addr, env)
				if err != nil {
					return err
				}
				d = v
			case OpSt:
				if err := w.store(in.Space, addr, b, env); err != nil {
					return err
				}
				continue
			case OpAtomAdd:
				old := env.Global.Read32(addr)
				env.Global.Write32(addr, old+b)
				d = old
			}
		default:
			return fmt.Errorf("kernel: unimplemented op %v", in.Op)
		}
		if in.HasDst {
			*w.reg(in.Dst, l) = d
		}
	}
	return nil
}

func (w *Warp) load(space Space, addr uint32, env *Env) (uint32, error) {
	switch space {
	case SpaceGlobal:
		return env.Global.Read32(addr), nil
	case SpaceShared:
		i := int(addr / 4)
		if i >= len(env.Block.Shared) {
			return 0, fmt.Errorf("kernel: shared load at %d beyond %d bytes", addr, 4*len(env.Block.Shared))
		}
		return env.Block.Shared[i], nil
	case SpaceConst:
		return env.Const.Read32(addr), nil
	case SpaceParam:
		i := int(addr / 4)
		if i >= len(env.Block.Launch.Params) {
			return 0, fmt.Errorf("kernel: param %d beyond %d params", i, len(env.Block.Launch.Params))
		}
		return env.Block.Launch.Params[i], nil
	case SpaceTexture:
		// Textures are read-only views of global memory.
		return env.Global.Read32(addr), nil
	}
	return 0, fmt.Errorf("kernel: load from space %v", space)
}

func (w *Warp) store(space Space, addr, v uint32, env *Env) error {
	switch space {
	case SpaceGlobal:
		env.Global.Write32(addr, v)
		return nil
	case SpaceShared:
		i := int(addr / 4)
		if i >= len(env.Block.Shared) {
			return fmt.Errorf("kernel: shared store at %d beyond %d bytes", addr, 4*len(env.Block.Shared))
		}
		env.Block.Shared[i] = v
		return nil
	}
	return fmt.Errorf("kernel: store to space %v", space)
}

func boolTo32(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

func cmpI(c Cmp, a, b int32) bool {
	switch c {
	case CmpEQ:
		return a == b
	case CmpNE:
		return a != b
	case CmpLT:
		return a < b
	case CmpLE:
		return a <= b
	case CmpGT:
		return a > b
	case CmpGE:
		return a >= b
	}
	return false
}

func cmpF(c Cmp, a, b float32) bool {
	switch c {
	case CmpEQ:
		return a == b
	case CmpNE:
		return a != b
	case CmpLT:
		return a < b
	case CmpLE:
		return a <= b
	case CmpGT:
		return a > b
	case CmpGE:
		return a >= b
	}
	return false
}
