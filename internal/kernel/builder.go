package kernel

import (
	"fmt"
	"math"
	"slices"
)

// B2F converts register bits to a float64 value.
func B2F(bits int64) float64 { return math.Float64frombits(uint64(bits)) }

// F2B converts a float64 value to register bits.
func F2B(f float64) int64 { return int64(math.Float64bits(f)) }

// Builder assembles a Kernel. It tracks register allocation, labels, and
// structured control flow so that workloads can be written compactly:
//
//	b := kernel.NewBuilder("vectoradd")
//	a := b.BufferParam("a", true)
//	tid := b.GlobalTID()
//	va := b.LoadGlobal(b.AddScaled(a, tid, 4), 4)
//
// Branch targets are symbolic until Build, which patches instruction indices
// and validates the result.
type Builder struct {
	k       Kernel
	nextReg int
	labels  map[string]int    // label -> instruction index
	fixups  map[int][2]string // instruction index -> {target label, reconv label}
	nlabel  int
	err     error
}

// NewBuilder returns a Builder for a kernel with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{
		k:      Kernel{Name: name},
		labels: make(map[string]int),
		fixups: make(map[int][2]string),
	}
}

// Errf records a deferred build error (first one wins).
func (b *Builder) Errf(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("%s: %s", b.k.Name, fmt.Sprintf(format, args...))
	}
}

// BufferParam declares a buffer-pointer kernel parameter.
func (b *Builder) BufferParam(name string, readOnly bool) Operand {
	b.k.Params = append(b.k.Params, ParamSpec{Name: name, Kind: ParamBuffer, ReadOnly: readOnly})
	return Param(len(b.k.Params) - 1)
}

// ScalarParam declares a scalar kernel parameter.
func (b *Builder) ScalarParam(name string) Operand {
	b.k.Params = append(b.k.Params, ParamSpec{Name: name, Kind: ParamScalar})
	return Param(len(b.k.Params) - 1)
}

// Local declares a per-thread local-memory variable of the given byte size
// and returns its index, used with LoadLocal/StoreLocal.
func (b *Builder) Local(name string, bytes int) int {
	b.k.Locals = append(b.k.Locals, LocalVar{Name: name, Bytes: bytes})
	return len(b.k.Locals) - 1
}

// Shared reserves per-workgroup shared memory and returns the byte offset of
// the reservation.
func (b *Builder) Shared(bytes int) int64 {
	off := b.k.SharedBytes
	b.k.SharedBytes += bytes
	return int64(off)
}

// NewReg allocates a fresh per-lane register and returns it as an operand.
func (b *Builder) NewReg() Operand {
	r := b.nextReg
	b.nextReg++
	return Reg(r)
}

// Grow makes room for n more instructions, so a caller that knows the
// kernel's length can have Code allocated once.
func (b *Builder) Grow(n int) {
	b.k.Code = slices.Grow(b.k.Code, n)
}

func (b *Builder) emit(in Instr) int {
	b.k.Code = append(b.k.Code, in)
	return len(b.k.Code) - 1
}

// Emit appends a raw instruction. Pred must be set explicitly (-1 for
// unguarded).
func (b *Builder) Emit(in Instr) int { return b.emit(in) }

// op3 emits a three-operand ALU instruction into a fresh register.
func (b *Builder) op3(op Op, s0, s1, s2 Operand) Operand {
	d := b.NewReg()
	b.emit(Instr{Op: op, Dst: d.Reg, Src: [3]Operand{s0, s1, s2}, Pred: -1})
	return d
}

// Mov copies src into a fresh register.
func (b *Builder) Mov(src Operand) Operand { return b.op3(OpMov, src, Operand{}, Operand{}) }

// MovTo copies src into dst (used to update loop-carried registers).
func (b *Builder) MovTo(dst, src Operand) {
	if dst.Kind != OperandReg {
		b.Errf("MovTo destination must be a register")
		return
	}
	b.emit(Instr{Op: OpMov, Dst: dst.Reg, Src: [3]Operand{src}, Pred: -1})
}

// Arithmetic helpers. Each returns a fresh destination register.

func (b *Builder) Add(x, y Operand) Operand     { return b.op3(OpAdd, x, y, Operand{}) }
func (b *Builder) Sub(x, y Operand) Operand     { return b.op3(OpSub, x, y, Operand{}) }
func (b *Builder) Mul(x, y Operand) Operand     { return b.op3(OpMul, x, y, Operand{}) }
func (b *Builder) Mad(x, y, z Operand) Operand  { return b.op3(OpMad, x, y, z) }
func (b *Builder) Div(x, y Operand) Operand     { return b.op3(OpDiv, x, y, Operand{}) }
func (b *Builder) Rem(x, y Operand) Operand     { return b.op3(OpRem, x, y, Operand{}) }
func (b *Builder) Min(x, y Operand) Operand     { return b.op3(OpMin, x, y, Operand{}) }
func (b *Builder) Max(x, y Operand) Operand     { return b.op3(OpMax, x, y, Operand{}) }
func (b *Builder) And(x, y Operand) Operand     { return b.op3(OpAnd, x, y, Operand{}) }
func (b *Builder) Or(x, y Operand) Operand      { return b.op3(OpOr, x, y, Operand{}) }
func (b *Builder) Xor(x, y Operand) Operand     { return b.op3(OpXor, x, y, Operand{}) }
func (b *Builder) Shl(x, y Operand) Operand     { return b.op3(OpShl, x, y, Operand{}) }
func (b *Builder) Shr(x, y Operand) Operand     { return b.op3(OpShr, x, y, Operand{}) }
func (b *Builder) FAdd(x, y Operand) Operand    { return b.op3(OpFAdd, x, y, Operand{}) }
func (b *Builder) FSub(x, y Operand) Operand    { return b.op3(OpFSub, x, y, Operand{}) }
func (b *Builder) FMul(x, y Operand) Operand    { return b.op3(OpFMul, x, y, Operand{}) }
func (b *Builder) FMad(x, y, z Operand) Operand { return b.op3(OpFMad, x, y, z) }
func (b *Builder) FDiv(x, y Operand) Operand    { return b.op3(OpFDiv, x, y, Operand{}) }
func (b *Builder) FSqrt(x Operand) Operand      { return b.op3(OpFSqrt, x, Operand{}, Operand{}) }
func (b *Builder) FMin(x, y Operand) Operand    { return b.op3(OpFMin, x, y, Operand{}) }
func (b *Builder) FMax(x, y Operand) Operand    { return b.op3(OpFMax, x, y, Operand{}) }
func (b *Builder) CvtIF(x Operand) Operand      { return b.op3(OpCvtIF, x, Operand{}, Operand{}) }
func (b *Builder) CvtFI(x Operand) Operand      { return b.op3(OpCvtFI, x, Operand{}, Operand{}) }

// Selp returns cond != 0 ? x : y.
func (b *Builder) Selp(x, y, cond Operand) Operand { return b.op3(OpSelp, x, y, cond) }

// Special-register accessors.

func (b *Builder) TID() Operand        { return Spec(SpecTIDX) }
func (b *Builder) CTAID() Operand      { return Spec(SpecCTAIDX) }
func (b *Builder) NTID() Operand       { return Spec(SpecNTIDX) }
func (b *Builder) NCTAID() Operand     { return Spec(SpecNCTAIDX) }
func (b *Builder) GlobalTID() Operand  { return Spec(SpecGlobalTID) }
func (b *Builder) GlobalSize() Operand { return Spec(SpecGlobalSize) }
func (b *Builder) LaneID() Operand     { return Spec(SpecLaneID) }

// Comparison helpers writing 0/1 into a fresh register usable as a guard.

func (b *Builder) SetLT(x, y Operand) Operand  { return b.op3(OpSetLT, x, y, Operand{}) }
func (b *Builder) SetLE(x, y Operand) Operand  { return b.op3(OpSetLE, x, y, Operand{}) }
func (b *Builder) SetEQ(x, y Operand) Operand  { return b.op3(OpSetEQ, x, y, Operand{}) }
func (b *Builder) SetNE(x, y Operand) Operand  { return b.op3(OpSetNE, x, y, Operand{}) }
func (b *Builder) SetGT(x, y Operand) Operand  { return b.op3(OpSetGT, x, y, Operand{}) }
func (b *Builder) SetGE(x, y Operand) Operand  { return b.op3(OpSetGE, x, y, Operand{}) }
func (b *Builder) FSetLT(x, y Operand) Operand { return b.op3(OpFSetLT, x, y, Operand{}) }
func (b *Builder) FSetGT(x, y Operand) Operand { return b.op3(OpFSetGT, x, y, Operand{}) }

// Addressing helpers.

// AddScaled computes base + idx*scale and returns the address register. This
// is the IR's GEP analogue and the pattern the static analyzer recognizes.
func (b *Builder) AddScaled(base, idx Operand, scale int64) Operand {
	return b.Mad(idx, Imm(scale), base)
}

// LoadGlobal emits a global load of size bytes from the address in addr.
func (b *Builder) LoadGlobal(addr Operand, bytes int) Operand {
	d := b.NewReg()
	b.emit(Instr{Op: OpLd, Dst: d.Reg, Src: [3]Operand{addr}, Space: SpaceGlobal, Bytes: bytes, Pred: -1})
	return d
}

// StoreGlobal emits a global store of size bytes.
func (b *Builder) StoreGlobal(addr, val Operand, bytes int) {
	b.emit(Instr{Op: OpSt, Dst: -1, Src: [3]Operand{addr, {}, val}, Space: SpaceGlobal, Bytes: bytes, Pred: -1})
}

// LoadGlobalOfs emits a Method-C (base + offset) global load: the base is a
// kernel parameter consumed directly, the offset is a byte offset. This form
// is eligible for the Type-3 pointer optimization (§5.3.3).
func (b *Builder) LoadGlobalOfs(base, offset Operand, bytes int) Operand {
	if base.Kind != OperandParam {
		b.Errf("LoadGlobalOfs base must be a kernel parameter")
	}
	d := b.NewReg()
	b.emit(Instr{Op: OpLd, Dst: d.Reg, Src: [3]Operand{base, offset}, Space: SpaceGlobal, Bytes: bytes, Pred: -1})
	return d
}

// StoreGlobalOfs emits a Method-C (base + offset) global store.
func (b *Builder) StoreGlobalOfs(base, offset, val Operand, bytes int) {
	if base.Kind != OperandParam {
		b.Errf("StoreGlobalOfs base must be a kernel parameter")
	}
	b.emit(Instr{Op: OpSt, Dst: -1, Src: [3]Operand{base, offset, val}, Space: SpaceGlobal, Bytes: bytes, Pred: -1})
}

// LoadGlobalF32 emits a 4-byte global load of float32 data widened into
// float64 register bits.
func (b *Builder) LoadGlobalF32(addr Operand) Operand {
	d := b.NewReg()
	b.emit(Instr{Op: OpLd, Dst: d.Reg, Src: [3]Operand{addr}, Space: SpaceGlobal, Bytes: 4, F32: true, Pred: -1})
	return d
}

// StoreGlobalF32 emits a 4-byte global store narrowing float64 register
// bits to float32 data.
func (b *Builder) StoreGlobalF32(addr, val Operand) {
	b.emit(Instr{Op: OpSt, Dst: -1, Src: [3]Operand{addr, {}, val}, Space: SpaceGlobal, Bytes: 4, F32: true, Pred: -1})
}

// LoadGlobalOfsF32 is the Method-C float32 load.
func (b *Builder) LoadGlobalOfsF32(base, offset Operand) Operand {
	if base.Kind != OperandParam {
		b.Errf("LoadGlobalOfsF32 base must be a kernel parameter")
	}
	d := b.NewReg()
	b.emit(Instr{Op: OpLd, Dst: d.Reg, Src: [3]Operand{base, offset}, Space: SpaceGlobal, Bytes: 4, F32: true, Pred: -1})
	return d
}

// StoreGlobalOfsF32 is the Method-C float32 store.
func (b *Builder) StoreGlobalOfsF32(base, offset, val Operand) {
	if base.Kind != OperandParam {
		b.Errf("StoreGlobalOfsF32 base must be a kernel parameter")
	}
	b.emit(Instr{Op: OpSt, Dst: -1, Src: [3]Operand{base, offset, val}, Space: SpaceGlobal, Bytes: 4, F32: true, Pred: -1})
}

// LoadSharedF32 / StoreSharedF32 are the shared-memory float32 forms.

func (b *Builder) LoadSharedF32(addr Operand) Operand {
	d := b.NewReg()
	b.emit(Instr{Op: OpLd, Dst: d.Reg, Src: [3]Operand{addr}, Space: SpaceShared, Bytes: 4, F32: true, Pred: -1})
	return d
}

func (b *Builder) StoreSharedF32(addr, val Operand) {
	b.emit(Instr{Op: OpSt, Dst: -1, Src: [3]Operand{addr, {}, val}, Space: SpaceShared, Bytes: 4, F32: true, Pred: -1})
}

// LoadLocalF32 / StoreLocalF32 are the local-memory float32 forms.

func (b *Builder) LoadLocalF32(varIdx int, offset Operand) Operand {
	d := b.NewReg()
	b.emit(Instr{Op: OpLd, Dst: d.Reg, Src: [3]Operand{offset, Imm(int64(varIdx))}, Space: SpaceLocal, Bytes: 4, F32: true, Pred: -1})
	return d
}

func (b *Builder) StoreLocalF32(varIdx int, offset, val Operand) {
	b.emit(Instr{Op: OpSt, Dst: -1, Src: [3]Operand{offset, Imm(int64(varIdx)), val}, Space: SpaceLocal, Bytes: 4, F32: true, Pred: -1})
}

// AtomAddGlobal emits an atomic add returning the old value.
func (b *Builder) AtomAddGlobal(addr, val Operand, bytes int) Operand {
	d := b.NewReg()
	b.emit(Instr{Op: OpAtomAdd, Dst: d.Reg, Src: [3]Operand{addr, {}, val}, Space: SpaceGlobal, Bytes: bytes, Pred: -1})
	return d
}

// LoadShared / StoreShared access the on-chip scratchpad at a byte address.

func (b *Builder) LoadShared(addr Operand, bytes int) Operand {
	d := b.NewReg()
	b.emit(Instr{Op: OpLd, Dst: d.Reg, Src: [3]Operand{addr}, Space: SpaceShared, Bytes: bytes, Pred: -1})
	return d
}

func (b *Builder) StoreShared(addr, val Operand, bytes int) {
	b.emit(Instr{Op: OpSt, Dst: -1, Src: [3]Operand{addr, {}, val}, Space: SpaceShared, Bytes: bytes, Pred: -1})
}

// LoadLocal / StoreLocal access a per-thread local variable at a byte offset
// within that variable. varIdx selects the declared local variable.

func (b *Builder) LoadLocal(varIdx int, offset Operand, bytes int) Operand {
	d := b.NewReg()
	b.emit(Instr{Op: OpLd, Dst: d.Reg, Src: [3]Operand{offset, Imm(int64(varIdx))}, Space: SpaceLocal, Bytes: bytes, Pred: -1})
	return d
}

func (b *Builder) StoreLocal(varIdx int, offset, val Operand, bytes int) {
	b.emit(Instr{Op: OpSt, Dst: -1, Src: [3]Operand{offset, Imm(int64(varIdx)), val}, Space: SpaceLocal, Bytes: bytes, Pred: -1})
}

// Len returns the number of instructions emitted so far. The instruction
// most recently emitted by a helper sits at index Len()-1; generators use
// this to record the PC of each memory access they plant.
func (b *Builder) Len() int { return len(b.k.Code) }

// Barrier emits a workgroup barrier.
func (b *Builder) Barrier() { b.emit(Instr{Op: OpBar, Dst: -1, Pred: -1}) }

// Exit emits a lane retire.
func (b *Builder) Exit() { b.emit(Instr{Op: OpExit, Dst: -1, Pred: -1}) }

// newLabel mints a unique internal label name.
func (b *Builder) newLabel(hint string) string {
	b.nlabel++
	return fmt.Sprintf(".%s%d", hint, b.nlabel)
}

// Label binds a name to the next emitted instruction.
func (b *Builder) Label(name string) { b.labels[name] = len(b.k.Code) }

// braTo emits a branch with symbolic target (and reconvergence) labels.
func (b *Builder) braTo(op Op, pred Operand, neg bool, target, reconv string) {
	p := -1
	if pred.Kind == OperandReg {
		p = pred.Reg
	} else if pred.Kind != OperandNone {
		b.Errf("branch guard must be a register")
	}
	idx := b.emit(Instr{Op: op, Dst: -1, Pred: p, PNeg: neg})
	b.fixups[idx] = [2]string{target, reconv}
}

// Branch emits a conditional uniform or unconditional branch to a named label
// (advanced use; prefer the structured helpers).
func (b *Builder) Branch(op Op, pred Operand, neg bool, target string) {
	b.braTo(op, pred, neg, target, target)
}

// If emits a structured divergent if: lanes where pred is zero jump over
// then and all lanes reconverge after it.
func (b *Builder) If(pred Operand, then func()) {
	end := b.newLabel("endif")
	b.braTo(OpBraDiv, pred, true, end, end)
	then()
	b.Label(end)
}

// IfElse emits a structured divergent if/else.
func (b *Builder) IfElse(pred Operand, then, els func()) {
	elseL := b.newLabel("else")
	end := b.newLabel("endif")
	b.braTo(OpBraDiv, pred, true, elseL, end)
	then()
	b.braTo(OpBraUni, Operand{}, false, end, end)
	b.Label(elseL)
	els()
	b.Label(end)
}

// WhileAny emits a loop that iterates while any active lane's condition
// holds. cond must (re)compute and return the condition register each
// iteration; the body executes under a divergent If masking finished lanes,
// so nested control flow inside body composes correctly.
func (b *Builder) WhileAny(cond func() Operand, body func()) {
	head := b.newLabel("loop")
	exit := b.newLabel("loopend")
	b.Label(head)
	p := cond()
	b.braTo(OpBraAll, p, true, exit, exit) // exit when no lane wants another iteration
	b.If(p, body)
	b.braTo(OpBraUni, Operand{}, false, head, head)
	b.Label(exit)
}

// ForRange emits a counted loop: for i := start; i < bound; i += step.
// start, bound, and step should be warp-uniform for a uniform trip count;
// per-lane work inside can be wrapped in If.
func (b *Builder) ForRange(start, bound, step Operand, body func(i Operand)) {
	i := b.Mov(start)
	head := b.newLabel("for")
	exit := b.newLabel("forend")
	b.Label(head)
	p := b.SetLT(i, bound)
	b.braTo(OpBraAll, p, true, exit, exit)
	body(i)
	b.MovTo(i, b.Add(i, step))
	b.braTo(OpBraUni, Operand{}, false, head, head)
	b.Label(exit)
}

// Build finalizes the kernel: patches labels, fills register counts, and
// validates. The Builder must not be reused afterwards.
func (b *Builder) Build() (*Kernel, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.k.Code) == 0 || b.k.Code[len(b.k.Code)-1].Op != OpExit {
		b.k.Code = append(b.k.Code, Instr{Op: OpExit, Dst: -1, Pred: -1})
	}
	for idx, names := range b.fixups {
		t, ok := b.labels[names[0]]
		if !ok {
			return nil, fmt.Errorf("%s: undefined label %q", b.k.Name, names[0])
		}
		b.k.Code[idx].Label = t
		r, ok := b.labels[names[1]]
		if !ok {
			return nil, fmt.Errorf("%s: undefined reconvergence label %q", b.k.Name, names[1])
		}
		b.k.Code[idx].Reconv = r
	}
	b.k.NumRegs = b.nextReg
	if b.k.NumRegs == 0 {
		b.k.NumRegs = 1
	}
	k := b.k
	if err := k.Validate(); err != nil {
		return nil, err
	}
	return &k, nil
}

// MustBuild is Build that panics on error; used by the workload corpus where
// kernels are static program text.
func (b *Builder) MustBuild() *Kernel {
	k, err := b.Build()
	if err != nil {
		panic(err)
	}
	return k
}
