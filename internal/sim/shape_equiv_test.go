package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"gpushield/internal/core"
	"gpushield/internal/driver"
	"gpushield/internal/kernel"
)

// Randomized shape equivalence: generated programs run on the shaped fast
// path (superblocks, register tags, tag-driven memory plans) and on the
// Config.NoSuperblocks reference (every register vector-shaped, lane by
// lane), and every LaunchStats byte plus every register — each thread
// stores its whole register file at the end — must agree. The generator
// covers every ALU opcode with every operand kind (register, immediate,
// parameter, every special), the arithmetic corners (division by zero,
// MinInt64 / -1, shift amounts past 63 and negative, NaN, ±Inf, −0,
// out-of-range float-to-int), guarded instructions, divergent masks down to
// single lanes, lanes that exited, partial warps, and affine addresses
// with negative slopes, some of them running out of bounds.

// shapeALUOps is every ALU opcode.
var shapeALUOps = []kernel.Op{
	kernel.OpNop, kernel.OpMov, kernel.OpAdd, kernel.OpSub, kernel.OpMul, kernel.OpMad,
	kernel.OpDiv, kernel.OpRem, kernel.OpMin, kernel.OpMax, kernel.OpAnd, kernel.OpOr,
	kernel.OpXor, kernel.OpShl, kernel.OpShr, kernel.OpSetLT, kernel.OpSetLE,
	kernel.OpSetEQ, kernel.OpSetNE, kernel.OpSetGT, kernel.OpSetGE, kernel.OpSelp,
	kernel.OpFAdd, kernel.OpFSub, kernel.OpFMul, kernel.OpFMad, kernel.OpFDiv,
	kernel.OpFSqrt, kernel.OpFMin, kernel.OpFMax, kernel.OpCvtIF, kernel.OpCvtFI,
	kernel.OpFSetLT, kernel.OpFSetLE, kernel.OpFSetGT,
}

// shapeValues are the operand corner cases, as raw register bits.
var shapeValues = []int64{
	0, 1, -1, 2, 3, 7, 63, 64, 65, 100, -64, -65, 255, 4096,
	math.MinInt64, math.MaxInt64,
	kernel.F2B(math.NaN()), kernel.F2B(math.Inf(1)), kernel.F2B(math.Inf(-1)),
	kernel.F2B(math.Copysign(0, -1)), kernel.F2B(1.5), kernel.F2B(-2.25),
	kernel.F2B(1e300), kernel.F2B(-1e19), kernel.F2B(9.3e18),
}

const (
	shapeRegs  = 8   // value registers each program computes on
	shapeWords = 256 // input buffer words
)

// genShapeProgram builds one random program. divergent adds exits,
// divergent Ifs (partial, single-lane, data-dependent) and nested ones.
func genShapeProgram(rng *rand.Rand, id int, divergent bool) *kernel.Kernel {
	kb := kernel.NewBuilder(fmt.Sprintf("shape%d", id))
	in := kb.BufferParam("in", true)
	out := kb.BufferParam("out", false)
	s0 := kb.ScalarParam("s0")
	s1 := kb.ScalarParam("s1")
	gtid := kb.GlobalTID()
	lane := kb.LaneID()
	pick := func() int64 { return shapeValues[rng.Intn(len(shapeValues))] }

	// Seed registers with every shape: affine, uniform, vector, and loads
	// through affine addresses with positive and negative slopes.
	r := make([]kernel.Operand, shapeRegs)
	r[0] = kb.Mov(gtid)
	r[1] = kb.Mad(lane, kernel.Imm(pick()), kernel.Imm(pick()))
	r[2] = kb.Mov(s0)
	r[3] = kb.LoadGlobal(kb.AddScaled(in, kb.And(gtid, kernel.Imm(shapeWords-1)), 8), 8)
	r[4] = kb.Mov(kernel.Imm(pick()))
	r[5] = kb.LoadGlobal(kb.AddScaled(in, kb.Sub(kernel.Imm(shapeWords-1), lane), 8), 8)
	r[6] = kb.LoadGlobalOfs(in, kb.Mul(kb.Sub(kernel.Imm(40), lane), kernel.Imm(8)), 8)
	r[7] = kb.Mov(kb.CTAID())

	operand := func() kernel.Operand {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4:
			return r[rng.Intn(shapeRegs)]
		case 5, 6:
			return kernel.Imm(pick())
		case 7:
			if rng.Intn(2) == 0 {
				return s0
			}
			return s1
		default:
			return kernel.Spec(kernel.Special(rng.Intn(kernel.NumSpecials)))
		}
	}
	affine := []kernel.Operand{gtid, lane, kb.TID(), r[0], r[1]}
	emitALU := func() {
		op := shapeALUOps[rng.Intn(len(shapeALUOps))]
		ins := kernel.Instr{Op: op, Dst: r[rng.Intn(shapeRegs)].Reg, Pred: -1}
		for j := 0; j < aluArity(op); j++ {
			ins.Src[j] = operand()
		}
		if (op == kernel.OpMul || op == kernel.OpMad) && rng.Intn(2) == 0 {
			// A product of two lane-varying factors is not affine.
			ins.Src[0], ins.Src[1] = affine[rng.Intn(len(affine))], affine[rng.Intn(len(affine))]
		}
		if rng.Intn(6) == 0 {
			ins.Pred, ins.PNeg = r[rng.Intn(shapeRegs)].Reg, rng.Intn(2) == 0
		}
		kb.Emit(ins)
	}
	emitLoad := func() {
		dst := r[rng.Intn(shapeRegs)]
		switch rng.Intn(4) {
		case 0: // vector index, in bounds
			idx := kb.And(operand(), kernel.Imm(shapeWords-1))
			kb.MovTo(dst, kb.LoadGlobal(kb.AddScaled(in, idx, 8), 8))
		case 1: // affine index with slope -1, 0 or 1, in bounds
			idx := kb.Add(kb.Mul(lane, kernel.Imm(int64(rng.Intn(3)-1))), kernel.Imm(shapeWords/2))
			kb.MovTo(dst, kb.LoadGlobal(kb.AddScaled(in, idx, 8), 8))
		case 2: // descending addresses whose upper lanes fall below the buffer
			idx := kb.Sub(kernel.Imm(int64(rng.Intn(24))), lane)
			kb.MovTo(dst, kb.LoadGlobal(kb.AddScaled(in, idx, 8), 8))
		default: // the same through a descending Method-C offset
			ofs := kb.Mul(kb.Sub(kernel.Imm(int64(rng.Intn(24))), lane), kernel.Imm(8))
			kb.MovTo(dst, kb.LoadGlobalOfs(in, ofs, 8))
		}
	}
	var body func(depth int)
	body = func(depth int) {
		for i := 0; i < 6+rng.Intn(10); i++ {
			switch {
			case rng.Intn(8) == 0:
				emitLoad()
			case divergent && depth < 2 && rng.Intn(7) == 0:
				var cond kernel.Operand
				switch rng.Intn(4) {
				case 0:
					cond = kb.SetLT(lane, kernel.Imm(int64(rng.Intn(20))))
				case 1:
					cond = kb.SetEQ(lane, kernel.Imm(int64(rng.Intn(16))))
				case 2:
					cond = kb.SetNE(kb.And(gtid, kernel.Imm(1)), kernel.Imm(0))
				default:
					cond = r[rng.Intn(shapeRegs)]
				}
				kb.If(cond, func() { body(depth + 1) })
			default:
				emitALU()
			}
		}
	}
	if divergent {
		// Retire a scattered lane subset up front.
		gone := kb.SetEQ(kb.Rem(gtid, kernel.Imm(5)), kernel.Imm(3))
		kb.Emit(kernel.Instr{Op: kernel.OpExit, Dst: -1, Pred: gone.Reg})
	}
	body(0)
	for i, x := range r {
		at := kb.Add(kb.Mul(gtid, kernel.Imm(shapeRegs)), kernel.Imm(int64(i)))
		kb.StoreGlobal(kb.AddScaled(out, at, 8), x, 8)
	}
	return kb.MustBuild()
}

// shapeRun executes k once and returns its report and output buffer.
func shapeRun(t *testing.T, k *kernel.Kernel, cfg Config, grid, block int, args [2]int64) (*LaunchStats, []byte) {
	t.Helper()
	dev := driver.NewDevice(3)
	in := dev.Malloc("in", shapeWords*8, true)
	for i := 0; i < shapeWords; i++ {
		v := shapeValues[i%len(shapeValues)] ^ int64(i/len(shapeValues))
		dev.Mem.WriteUint64(in.Base+uint64(i)*8, uint64(v))
	}
	outBytes := grid * block * shapeRegs * 8
	out := dev.Malloc("out", uint64(outBytes), false)
	l, err := dev.PrepareLaunch(k, grid, block, []driver.Arg{
		driver.BufArg(in), driver.BufArg(out),
		driver.ScalarArg(args[0]), driver.ScalarArg(args[1]),
	}, driver.ModeShield, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := New(cfg, dev).Run(l)
	if err != nil {
		t.Fatal(err)
	}
	return st, dev.Mem.ReadBytes(out.Base, outBytes)
}

func TestShapeEquivRandomPrograms(t *testing.T) {
	const programs = 40
	configs := []struct {
		cfg   Config
		block int // not a multiple of the warp width: the last warp is partial
	}{
		{NvidiaConfig().WithShield(core.DefaultBCUConfig()), 80},
		{IntelConfig().WithShield(core.DefaultBCUConfig()), 40},
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 2*programs; i++ {
		divergent := i%2 == 1
		k := genShapeProgram(rng, i, divergent)
		args := [2]int64{shapeValues[rng.Intn(len(shapeValues))], int64(rng.Intn(200) - 100)}
		for _, c := range configs {
			for _, width := range []int{1, 2} {
				name := fmt.Sprintf("prog%d/divergent=%v/%s/width=%d", i, divergent, c.cfg.Name, width)
				t.Run(name, func(t *testing.T) {
					ref := c.cfg
					ref.CoreParallel, ref.NoSuperblocks = width, true
					fast := c.cfg
					fast.CoreParallel = width
					want, wantMem := shapeRun(t, k, ref, 3, c.block, args)
					got, gotMem := shapeRun(t, k, fast, 3, c.block, args)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("stats diverged from the reference:\n got: %+v\nwant: %+v\n%s", got, want, k.Disassemble())
					}
					if i := firstDiff(gotMem, wantMem); i >= 0 {
						t.Fatalf("thread %d r%d differs from the reference:\n%s", i/8/shapeRegs, i/8%shapeRegs, k.Disassemble())
					}
				})
			}
		}
	}
}

// firstDiff returns the first byte index where a and b differ, or -1.
func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}
