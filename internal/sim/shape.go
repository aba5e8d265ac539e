package sim

import (
	"math"
	"math/bits"

	"gpushield/internal/kernel"
)

// Shape-tracked warp registers. Each warp register has a row, one int64
// per lane in a register-major slab, and a shape:
//
//   - vector: the row holds the register's value on every lane;
//   - affine(base, slope): every live lane holds base + slope·lane
//     (mod 2^64) and the row is stale. Slope 0 is a warp-uniform value.
//
// The shaped ALU executor (execALU) dispatches once per instruction on
// opcode × operand shapes. Affine-closed ops on affine inputs and any
// lane-local op on all-uniform inputs produce a tag in O(1); everything
// else runs one dense loop over whole rows (aluDense). A write that does
// not cover every live lane materializes the destination row first, so
// the lanes it skips keep their values. Memory plans read address tags
// instead of scanning lanes (memplan.go), and every other per-lane reader
// goes through warp.at or val.at.
//
// Shapes are warp-private, so nothing outside the warp can observe whether
// a value is tagged. Config.NoSuperblocks is the reference: every register
// stays vector-shaped and execALULanes runs each instruction lane by lane
// with aluScalar, the semantics every fast form must reproduce.

// regShape is one warp register's shape. The zero value is uniform 0, a
// freshly zeroed register.
type regShape struct {
	vector bool
	base   int64
	slope  int64
}

// val is one source operand resolved for a warp instruction: a
// vector-shaped register's row, or (row == nil) the affine value
// base + slope·lane, which also covers immediates, parameters and the
// special registers.
type val struct {
	row   []int64
	base  int64
	slope int64
}

// at returns the operand's value on one lane.
func (v *val) at(lane int) int64 {
	if v.row != nil {
		return v.row[lane]
	}
	return v.base + v.slope*int64(lane)
}

// uniform reports whether the operand has one value across the warp.
func (v *val) uniform() bool { return v.row == nil && v.slope == 0 }

// row returns register r's lane row.
func (w *warp) row(r int) []int64 {
	lo := r * w.ww
	return w.rows[lo : lo+w.ww : lo+w.ww]
}

// at reads register r on one lane through its shape.
func (w *warp) at(r, lane int) int64 {
	if s := &w.shape[r]; !s.vector {
		return s.base + s.slope*int64(lane)
	}
	return w.rows[r*w.ww+lane]
}

// materialize writes an affine register's value into its row and marks
// the register vector-shaped.
func (w *warp) materialize(r int) {
	s := &w.shape[r]
	if s.vector {
		return
	}
	row := w.row(r)
	for i := range row {
		row[i] = s.base + s.slope*int64(i)
	}
	s.vector = true
}

// dstRow returns register r's row for a write of the lanes in gmask and
// marks r vector-shaped. An affine register is materialized first unless
// the write covers every live lane.
func (w *warp) dstRow(r int, gmask uint64) []int64 {
	if gmask != w.live {
		w.materialize(r)
	}
	w.shape[r].vector = true
	return w.row(r)
}

// setAffine writes base + slope·lane to register r on the lanes in gmask:
// as a tag when the write covers every live lane and the warp tracks
// shapes, into the row otherwise.
func (w *warp) setAffine(r int, base, slope int64, gmask uint64) {
	if gmask == w.live && w.shapes {
		w.shape[r] = regShape{base: base, slope: slope}
		return
	}
	row := w.dstRow(r, gmask)
	for m := gmask; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros64(m)
		row[lane] = base + slope*int64(lane)
	}
}

// src resolves one source operand of w's current instruction.
func (c *coreState) src(w *warp, op kernel.Operand) val {
	switch op.Kind {
	case kernel.OperandReg:
		if s := &w.shape[op.Reg]; !s.vector {
			return val{base: s.base, slope: s.slope}
		}
		return val{row: w.row(op.Reg)}
	case kernel.OperandImm:
		return val{base: op.Imm}
	case kernel.OperandParam:
		return val{base: int64(w.wg.run.launch.Args[op.Param])}
	case kernel.OperandSpecial:
		l := w.wg.run.launch
		tid0 := int64(w.inWG * w.ww)
		switch op.Special {
		case kernel.SpecTIDX:
			return val{base: tid0, slope: 1}
		case kernel.SpecCTAIDX:
			return val{base: int64(w.wg.id)}
		case kernel.SpecNTIDX:
			return val{base: int64(l.Block)}
		case kernel.SpecNTIDY, kernel.SpecNCTAIDY:
			return val{base: 1}
		case kernel.SpecNCTAIDX:
			return val{base: int64(l.Grid)}
		case kernel.SpecLaneID:
			return val{slope: 1}
		case kernel.SpecWarpID:
			return val{base: int64(w.inWG)}
		case kernel.SpecGlobalTID:
			return val{base: int64(w.wg.id)*int64(l.Block) + tid0, slope: 1}
		case kernel.SpecGlobalSize:
			return val{base: int64(l.Grid) * int64(l.Block)}
		}
	}
	return val{} // OperandNone, SpecTIDY, SpecCTAIDY, undefined specials
}

// aluArity is the number of source operands op reads.
func aluArity(op kernel.Op) int {
	switch op {
	case kernel.OpNop:
		return 0
	case kernel.OpMov, kernel.OpFSqrt, kernel.OpCvtIF, kernel.OpCvtFI:
		return 1
	case kernel.OpMad, kernel.OpFMad, kernel.OpSelp:
		return 3
	}
	return 2
}

// affineOp returns op's result as an affine tag when the operand shapes
// allow it in O(1): mov, add, sub and mad of affine inputs, mul (and mad's
// product) with a uniform factor, shl by a uniform amount, selp on a
// uniform condition choosing an affine operand, and any op on all-uniform
// inputs. Every rule is exact mod 2^64.
func affineOp(op kernel.Op, x, y, z *val) (base, slope int64, ok bool) {
	switch op {
	case kernel.OpMov:
		if x.row == nil {
			return x.base, x.slope, true
		}
	case kernel.OpAdd:
		if x.row == nil && y.row == nil {
			return x.base + y.base, x.slope + y.slope, true
		}
	case kernel.OpSub:
		if x.row == nil && y.row == nil {
			return x.base - y.base, x.slope - y.slope, true
		}
	case kernel.OpMul, kernel.OpMad:
		if x.row != nil || y.row != nil || (op == kernel.OpMad && z.row != nil) {
			break
		}
		switch {
		case y.slope == 0:
			base, slope = x.base*y.base, x.slope*y.base
		case x.slope == 0:
			base, slope = x.base*y.base, x.base*y.slope
		default:
			return 0, 0, false
		}
		if op == kernel.OpMad {
			base, slope = base+z.base, slope+z.slope
		}
		return base, slope, true
	case kernel.OpShl:
		if x.row == nil && y.uniform() {
			k := uint64(y.base & 63)
			return x.base << k, x.slope << k, true
		}
	case kernel.OpSelp:
		if z.uniform() {
			s := x
			if z.base == 0 {
				s = y
			}
			if s.row == nil {
				return s.base, s.slope, true
			}
		}
	}
	n := aluArity(op)
	if (n < 1 || x.uniform()) && (n < 2 || y.uniform()) && (n < 3 || z.uniform()) {
		return aluScalar(op, x.base, y.base, z.base), 0, true
	}
	return 0, 0, false
}

// execALU executes one ALU instruction across the lanes in gmask with one
// shape dispatch: an O(1) tag when affineOp applies, otherwise one dense
// loop over whole rows — into the destination row when the write covers
// every live lane, into scratch that is then copied to the guarded lanes
// otherwise. Lanes outside the live set compute on stale values; nothing
// ever reads them, and no op can trap.
func (c *coreState) execALU(w *warp, in *kernel.Instr, gmask uint64) {
	dst := in.Dst
	if dst < 0 {
		return // a destination-less ALU op has no architectural effect
	}
	op := in.Op
	n := aluArity(op)
	var x, y, z val
	if n >= 1 {
		x = c.src(w, in.Src[0])
	}
	if n >= 2 {
		y = c.src(w, in.Src[1])
	}
	if n >= 3 {
		z = c.src(w, in.Src[2])
	}
	if base, slope, ok := affineOp(op, &x, &y, &z); ok {
		w.setAffine(dst, base, slope, gmask)
		return
	}
	xr := c.denseRow(w, &x, 0, n >= 1)
	yr := c.denseRow(w, &y, 1, n >= 2)
	zr := c.denseRow(w, &z, 2, n >= 3)
	if gmask == w.live {
		aluDense(op, w.dstRow(dst, gmask), xr, yr, zr)
		return
	}
	t := c.rowScratch[3][:w.ww]
	aluDense(op, t, xr, yr, zr)
	row := w.dstRow(dst, gmask)
	for m := gmask; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros64(m)
		row[lane] = t[lane]
	}
}

// denseRow returns v as a full row: a vector register's own row, or the
// affine value broadcast into scratch row i. Operands the op does not read
// (used == false) get the scratch row unfilled.
func (c *coreState) denseRow(w *warp, v *val, i int, used bool) []int64 {
	if v.row != nil {
		return v.row
	}
	r := c.rowScratch[i][:w.ww]
	if used {
		for lane := range r {
			r[lane] = v.base + v.slope*int64(lane)
		}
	}
	return r
}

// execALULanes is the reference ALU executor: each guarded lane reads its
// operands and runs aluScalar. It serves Config.NoSuperblocks, where every
// register is vector-shaped.
func (c *coreState) execALULanes(w *warp, in *kernel.Instr, gmask uint64) {
	if in.Dst < 0 {
		return
	}
	row := w.dstRow(in.Dst, gmask)
	for m := gmask; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros64(m)
		row[lane] = aluScalar(in.Op,
			c.operand(w, in.Src[0], lane),
			c.operand(w, in.Src[1], lane),
			c.operand(w, in.Src[2], lane))
	}
}

// aluScalar is the functional semantics of one ALU op on one lane's
// operands. Division by zero yields zero (GPUs do not trap); Nop and
// undefined opcodes yield zero.
func aluScalar(op kernel.Op, a, b, c int64) int64 {
	switch op {
	case kernel.OpMov:
		return a
	case kernel.OpAdd:
		return a + b
	case kernel.OpSub:
		return a - b
	case kernel.OpMul:
		return a * b
	case kernel.OpMad:
		return a*b + c
	case kernel.OpDiv:
		if b != 0 {
			return a / b
		}
	case kernel.OpRem:
		if b != 0 {
			return a % b
		}
	case kernel.OpMin:
		if b < a {
			return b
		}
		return a
	case kernel.OpMax:
		if b > a {
			return b
		}
		return a
	case kernel.OpAnd:
		return a & b
	case kernel.OpOr:
		return a | b
	case kernel.OpXor:
		return a ^ b
	case kernel.OpShl:
		return a << uint64(b&63)
	case kernel.OpShr:
		return int64(uint64(a) >> uint64(b&63))
	case kernel.OpSetLT:
		return b2i(a < b)
	case kernel.OpSetLE:
		return b2i(a <= b)
	case kernel.OpSetEQ:
		return b2i(a == b)
	case kernel.OpSetNE:
		return b2i(a != b)
	case kernel.OpSetGT:
		return b2i(a > b)
	case kernel.OpSetGE:
		return b2i(a >= b)
	case kernel.OpSelp:
		if c != 0 {
			return a
		}
		return b
	case kernel.OpFAdd:
		return fadd(a, b)
	case kernel.OpFSub:
		return fsub(a, b)
	case kernel.OpFMul:
		return fmul(a, b)
	case kernel.OpFMad:
		return fadd(fmul(a, b), c)
	case kernel.OpFDiv:
		return fdiv(a, b)
	case kernel.OpFSqrt:
		return kernel.F2B(math.Sqrt(math.Abs(kernel.B2F(a))))
	case kernel.OpFMin:
		return kernel.F2B(math.Min(kernel.B2F(a), kernel.B2F(b)))
	case kernel.OpFMax:
		return kernel.F2B(math.Max(kernel.B2F(a), kernel.B2F(b)))
	case kernel.OpCvtIF:
		return kernel.F2B(float64(a))
	case kernel.OpCvtFI:
		return int64(kernel.B2F(a))
	case kernel.OpFSetLT:
		return b2i(kernel.B2F(a) < kernel.B2F(b))
	case kernel.OpFSetLE:
		return b2i(kernel.B2F(a) <= kernel.B2F(b))
	case kernel.OpFSetGT:
		return b2i(kernel.B2F(a) > kernel.B2F(b))
	}
	return 0
}

// aluDense applies op to whole rows, d[i] = op(x[i], y[i], z[i]), with
// aluScalar's semantics. d may alias any source row: every op is
// elementwise.
func aluDense(op kernel.Op, d, x, y, z []int64) {
	x, y, z = x[:len(d)], y[:len(d)], z[:len(d)]
	switch op {
	case kernel.OpMov:
		copy(d, x)
	case kernel.OpAdd:
		for i := range d {
			d[i] = x[i] + y[i]
		}
	case kernel.OpSub:
		for i := range d {
			d[i] = x[i] - y[i]
		}
	case kernel.OpMul:
		for i := range d {
			d[i] = x[i] * y[i]
		}
	case kernel.OpMad:
		for i := range d {
			d[i] = x[i]*y[i] + z[i]
		}
	case kernel.OpDiv:
		for i := range d {
			var v int64
			if y[i] != 0 {
				v = x[i] / y[i]
			}
			d[i] = v
		}
	case kernel.OpRem:
		for i := range d {
			var v int64
			if y[i] != 0 {
				v = x[i] % y[i]
			}
			d[i] = v
		}
	case kernel.OpMin:
		for i := range d {
			d[i] = min(x[i], y[i])
		}
	case kernel.OpMax:
		for i := range d {
			d[i] = max(x[i], y[i])
		}
	case kernel.OpAnd:
		for i := range d {
			d[i] = x[i] & y[i]
		}
	case kernel.OpOr:
		for i := range d {
			d[i] = x[i] | y[i]
		}
	case kernel.OpXor:
		for i := range d {
			d[i] = x[i] ^ y[i]
		}
	case kernel.OpShl:
		for i := range d {
			d[i] = x[i] << uint64(y[i]&63)
		}
	case kernel.OpShr:
		for i := range d {
			d[i] = int64(uint64(x[i]) >> uint64(y[i]&63))
		}
	case kernel.OpSetLT:
		for i := range d {
			d[i] = b2i(x[i] < y[i])
		}
	case kernel.OpSetLE:
		for i := range d {
			d[i] = b2i(x[i] <= y[i])
		}
	case kernel.OpSetEQ:
		for i := range d {
			d[i] = b2i(x[i] == y[i])
		}
	case kernel.OpSetNE:
		for i := range d {
			d[i] = b2i(x[i] != y[i])
		}
	case kernel.OpSetGT:
		for i := range d {
			d[i] = b2i(x[i] > y[i])
		}
	case kernel.OpSetGE:
		for i := range d {
			d[i] = b2i(x[i] >= y[i])
		}
	case kernel.OpSelp:
		for i := range d {
			v := y[i]
			if z[i] != 0 {
				v = x[i]
			}
			d[i] = v
		}
	case kernel.OpFAdd:
		for i := range d {
			d[i] = fadd(x[i], y[i])
		}
	case kernel.OpFSub:
		for i := range d {
			d[i] = fsub(x[i], y[i])
		}
	case kernel.OpFMul:
		for i := range d {
			d[i] = fmul(x[i], y[i])
		}
	case kernel.OpFMad:
		for i := range d {
			d[i] = fadd(fmul(x[i], y[i]), z[i])
		}
	case kernel.OpFDiv:
		for i := range d {
			d[i] = fdiv(x[i], y[i])
		}
	case kernel.OpFSqrt:
		for i := range d {
			d[i] = kernel.F2B(math.Sqrt(math.Abs(kernel.B2F(x[i]))))
		}
	case kernel.OpFMin:
		for i := range d {
			d[i] = kernel.F2B(math.Min(kernel.B2F(x[i]), kernel.B2F(y[i])))
		}
	case kernel.OpFMax:
		for i := range d {
			d[i] = kernel.F2B(math.Max(kernel.B2F(x[i]), kernel.B2F(y[i])))
		}
	case kernel.OpCvtIF:
		for i := range d {
			d[i] = kernel.F2B(float64(x[i]))
		}
	case kernel.OpCvtFI:
		for i := range d {
			d[i] = int64(kernel.B2F(x[i]))
		}
	case kernel.OpFSetLT:
		for i := range d {
			d[i] = b2i(kernel.B2F(x[i]) < kernel.B2F(y[i]))
		}
	case kernel.OpFSetLE:
		for i := range d {
			d[i] = b2i(kernel.B2F(x[i]) <= kernel.B2F(y[i]))
		}
	case kernel.OpFSetGT:
		for i := range d {
			d[i] = b2i(kernel.B2F(x[i]) > kernel.B2F(y[i]))
		}
	default:
		clear(d)
	}
}

// The float arithmetic ops propagate NaNs explicitly: a NaN operand comes
// back quieted, the left one when both are NaN — the x86 rule for the
// first source operand. Only non-NaN operands reach the FPU, whose NaN
// results then carry no payload choice, so every code site agrees bit for
// bit whichever operand order the compiler gives a commutative op.
func fadd(a, b int64) int64 {
	if n, ok := nanOperand(a, b); ok {
		return n
	}
	return kernel.F2B(kernel.B2F(a) + kernel.B2F(b))
}

func fsub(a, b int64) int64 {
	if n, ok := nanOperand(a, b); ok {
		return n
	}
	return kernel.F2B(kernel.B2F(a) - kernel.B2F(b))
}

func fmul(a, b int64) int64 {
	if n, ok := nanOperand(a, b); ok {
		return n
	}
	return kernel.F2B(kernel.B2F(a) * kernel.B2F(b))
}

// fdiv divides, yielding 0 for a zero divisor (GPUs do not trap).
func fdiv(a, b int64) int64 {
	if kernel.B2F(b) == 0 {
		return 0
	}
	if n, ok := nanOperand(a, b); ok {
		return n
	}
	return kernel.F2B(kernel.B2F(a) / kernel.B2F(b))
}

// nanOperand returns the quieted first NaN among a and b.
func nanOperand(a, b int64) (int64, bool) {
	const quiet = 1 << 51
	switch {
	case a&math.MaxInt64 > 0x7FF0_0000_0000_0000:
		return a | quiet, true
	case b&math.MaxInt64 > 0x7FF0_0000_0000_0000:
		return b | quiet, true
	}
	return 0, false
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
