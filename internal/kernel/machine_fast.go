package kernel

import (
	"fmt"
	"math"
	"math/bits"
)

// Specialized data-path executor.
//
// execDataFast is execData for the common case the decoder marked fast:
// every operand is a register row or an immediate. The generic path calls
// Warp.operand per source per lane — an OperandKind switch plus an index
// multiply, millions of times per simulation; here the decoded table's
// flat row offsets let each source resolve to a slice header once per
// instruction, so the per-lane work collapses to indexed loads. Semantics
// are bit-identical to execData by construction: the same lane order
// (ascending set bits, so AtomAdd's lane ordering is preserved), the same
// arithmetic, the same error text.

// pickOperand reads source lane l from a resolved operand: the register
// row when non-nil, the immediate otherwise. Small enough to inline.
func pickOperand(row []uint32, imm uint32, l int) uint32 {
	if row != nil {
		return row[l]
	}
	return imm
}

// srcRow resolves decoded source i to a register-row slice (nil for
// immediates).
func (w *Warp) srcRow(d *DInstr, i int) []uint32 {
	if off := d.srcOff[i]; off >= 0 {
		return w.Regs[off : off+WarpSize]
	}
	return nil
}

// execDataFast executes a decoded-fast non-control instruction for all
// lanes in execMask.
func (w *Warp) execDataFast(in *Instr, d *DInstr, execMask uint32, env *Env, info *StepInfo) error {
	aRow := w.srcRow(d, 0)
	bRow := w.srcRow(d, 1)
	cRow := w.srcRow(d, 2)
	aImm, bImm, cImm := d.srcImm[0], d.srcImm[1], d.srcImm[2]
	var dRow []uint32
	if d.dstOff >= 0 {
		dRow = w.Regs[d.dstOff : d.dstOff+WarpSize]
	}

	for rem := execMask; rem != 0; rem &= rem - 1 {
		l := bits.TrailingZeros32(rem)
		a := pickOperand(aRow, aImm, l)

		var v uint32
		switch in.Op {
		case OpNop:
			continue
		case OpMov:
			v = a
		case OpIAdd:
			v = a + pickOperand(bRow, bImm, l)
		case OpISub:
			v = a - pickOperand(bRow, bImm, l)
		case OpIMul:
			v = a * pickOperand(bRow, bImm, l)
		case OpIMad:
			v = a*pickOperand(bRow, bImm, l) + pickOperand(cRow, cImm, l)
		case OpIMin:
			b := pickOperand(bRow, bImm, l)
			if int32(a) < int32(b) {
				v = a
			} else {
				v = b
			}
		case OpIMax:
			b := pickOperand(bRow, bImm, l)
			if int32(a) > int32(b) {
				v = a
			} else {
				v = b
			}
		case OpIAnd:
			v = a & pickOperand(bRow, bImm, l)
		case OpIOr:
			v = a | pickOperand(bRow, bImm, l)
		case OpIXor:
			v = a ^ pickOperand(bRow, bImm, l)
		case OpINot:
			v = ^a
		case OpIShl:
			v = a << (pickOperand(bRow, bImm, l) & 31)
		case OpIShr:
			v = a >> (pickOperand(bRow, bImm, l) & 31)
		case OpISra:
			v = uint32(int32(a) >> (pickOperand(bRow, bImm, l) & 31))
		case OpISet:
			v = boolTo32(cmpI(in.Cmp, int32(a), int32(pickOperand(bRow, bImm, l))))
		case OpISel:
			if a != 0 {
				v = pickOperand(bRow, bImm, l)
			} else {
				v = pickOperand(cRow, cImm, l)
			}
		case OpFAdd:
			v = f2b(b2f(a) + b2f(pickOperand(bRow, bImm, l)))
		case OpFSub:
			v = f2b(b2f(a) - b2f(pickOperand(bRow, bImm, l)))
		case OpFMul:
			v = f2b(b2f(a) * b2f(pickOperand(bRow, bImm, l)))
		case OpFFma:
			v = f2b(float32(float64(b2f(a))*float64(b2f(pickOperand(bRow, bImm, l))) + float64(b2f(pickOperand(cRow, cImm, l)))))
		case OpFMin:
			v = f2b(float32(math.Min(float64(b2f(a)), float64(b2f(pickOperand(bRow, bImm, l))))))
		case OpFMax:
			v = f2b(float32(math.Max(float64(b2f(a)), float64(b2f(pickOperand(bRow, bImm, l))))))
		case OpFNeg:
			v = f2b(-b2f(a))
		case OpFAbs:
			v = f2b(float32(math.Abs(float64(b2f(a)))))
		case OpFSet:
			v = boolTo32(cmpF(in.Cmp, b2f(a), b2f(pickOperand(bRow, bImm, l))))
		case OpI2F:
			v = f2b(float32(int32(a)))
		case OpF2I:
			v = uint32(int32(b2f(a)))
		case OpRcp:
			v = f2b(1 / b2f(a))
		case OpRsq:
			v = f2b(float32(1 / math.Sqrt(float64(b2f(a)))))
		case OpSqrt:
			v = f2b(float32(math.Sqrt(float64(b2f(a)))))
		case OpSin:
			v = f2b(float32(math.Sin(float64(b2f(a)))))
		case OpCos:
			v = f2b(float32(math.Cos(float64(b2f(a)))))
		case OpEx2:
			v = f2b(float32(math.Exp2(float64(b2f(a)))))
		case OpLg2:
			v = f2b(float32(math.Log2(float64(b2f(a)))))
		case OpLd, OpSt, OpAtomAdd:
			addr := a + uint32(in.Offset)
			info.Addrs[l] = addr
			switch in.Op {
			case OpLd:
				lv, err := w.load(in.Space, addr, env)
				if err != nil {
					return err
				}
				v = lv
			case OpSt:
				b := pickOperand(bRow, bImm, l)
				if err := w.store(in.Space, addr, b, env); err != nil {
					return err
				}
				continue
			case OpAtomAdd:
				b := pickOperand(bRow, bImm, l)
				old := env.Global.Read32(addr)
				env.Global.Write32(addr, old+b)
				v = old
			}
		default:
			return fmt.Errorf("kernel: unimplemented op %v", in.Op)
		}
		if dRow != nil {
			dRow[l] = v
		}
	}
	return nil
}
