// Package kernel defines the register-level intermediate representation in
// which GPU kernels are expressed throughout this repository.
//
// The IR plays the role that PTX/GEN/GCN binaries play in the paper: it is
// the artifact the compiler pass (internal/compiler) analyzes, the driver
// (internal/driver) sets up, and the cycle-level simulator (internal/sim)
// executes. Kernels are SIMT programs: every instruction is executed by all
// active lanes of a warp, with per-lane 64-bit registers. Predicates are
// ordinary registers holding 0/1; any instruction can be guarded by one.
//
// Control flow is structured. Forward divergence is expressed with BraDiv, a
// diverging branch carrying an explicit reconvergence point (the builder
// places it at the immediate post-dominator, mirroring the SSY/reconvergence
// mechanism of real GPUs). Loops use warp-uniform branches (BraAll/BraAny)
// driven by a vote across active lanes, with divergent If masking the body —
// the idiom real GPU compilers use for data-dependent trip counts.
package kernel

import (
	"errors"
	"fmt"
	"slices"
)

// Op enumerates IR opcodes.
type Op uint8

// Opcode values. Arithmetic is 64-bit integer unless prefixed with F
// (float64 carried in the register's bits).
const (
	OpNop Op = iota
	OpMov
	OpAdd
	OpSub
	OpMul
	OpMad // dst = src0*src1 + src2
	OpDiv
	OpRem
	OpMin
	OpMax
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpSetLT // dst = src0 < src1 ? 1 : 0 (signed)
	OpSetLE
	OpSetEQ
	OpSetNE
	OpSetGT
	OpSetGE
	OpSelp // dst = src2 != 0 ? src0 : src1
	OpFAdd
	OpFSub
	OpFMul
	OpFMad
	OpFDiv
	OpFSqrt
	OpFMin
	OpFMax
	OpCvtIF // int64 -> float64 bits
	OpCvtFI // float64 bits -> int64 (truncating)
	OpFSetLT
	OpFSetLE
	OpFSetGT
	OpLd      // dst = mem[src0 (+ src1 offset)] in Space
	OpSt      // mem[src0 (+ src1 offset)] = src2 in Space
	OpAtomAdd // dst = old mem value; mem += src2 (global only)
	OpBraDiv  // diverging forward branch: taken lanes jump to Label, others fall through, reconverge at Reconv
	OpBraAny  // uniform branch: taken if any active lane's guard value is true
	OpBraAll  // uniform branch: taken if all active lanes' guard values are true
	OpBraUni  // unconditional branch
	OpBar     // workgroup barrier
	OpExit    // lane retires
)

var opNames = [...]string{
	OpNop: "nop", OpMov: "mov", OpAdd: "add", OpSub: "sub", OpMul: "mul",
	OpMad: "mad", OpDiv: "div", OpRem: "rem", OpMin: "min", OpMax: "max",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
	OpSetLT: "set.lt", OpSetLE: "set.le", OpSetEQ: "set.eq", OpSetNE: "set.ne",
	OpSetGT: "set.gt", OpSetGE: "set.ge", OpSelp: "selp",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFMad: "fmad",
	OpFDiv: "fdiv", OpFSqrt: "fsqrt", OpFMin: "fmin", OpFMax: "fmax",
	OpCvtIF: "cvt.if", OpCvtFI: "cvt.fi",
	OpFSetLT: "fset.lt", OpFSetLE: "fset.le", OpFSetGT: "fset.gt",
	OpLd: "ld", OpSt: "st", OpAtomAdd: "atom.add",
	OpBraDiv: "bra.div", OpBraAny: "bra.any", OpBraAll: "bra.all",
	OpBraUni: "bra", OpBar: "bar", OpExit: "exit",
}

// String returns the mnemonic for the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsMemory reports whether the opcode accesses memory.
func (o Op) IsMemory() bool { return o == OpLd || o == OpSt || o == OpAtomAdd }

// IsBranch reports whether the opcode transfers control.
func (o Op) IsBranch() bool {
	return o == OpBraDiv || o == OpBraAny || o == OpBraAll || o == OpBraUni
}

// IsStore reports whether the opcode writes memory.
func (o Op) IsStore() bool { return o == OpSt || o == OpAtomAdd }

// IsFloat reports whether the opcode operates on float64 bit patterns.
func (o Op) IsFloat() bool {
	switch o {
	case OpFAdd, OpFSub, OpFMul, OpFMad, OpFDiv, OpFSqrt, OpFMin, OpFMax,
		OpFSetLT, OpFSetLE, OpFSetGT:
		return true
	}
	return false
}

// Space identifies the memory space of a load or store.
type Space uint8

// Memory spaces. Global covers host-allocated buffers, SVM, and the device
// heap (all addressed through 64-bit, possibly tagged, virtual addresses).
// Local is the per-thread off-chip spill/stack space (paper §2.1, Table 1).
// Shared is the on-chip per-workgroup scratchpad.
const (
	SpaceGlobal Space = iota
	SpaceLocal
	SpaceShared
)

func (s Space) String() string {
	switch s {
	case SpaceGlobal:
		return "global"
	case SpaceLocal:
		return "local"
	case SpaceShared:
		return "shared"
	}
	return "space?"
}

// OperandKind discriminates Operand variants.
type OperandKind uint8

// Operand kinds.
const (
	OperandNone    OperandKind = iota
	OperandReg                 // per-lane register
	OperandImm                 // immediate constant
	OperandSpecial             // special (thread geometry) register
	OperandParam               // kernel parameter (uniform, from constant memory)
)

// Special enumerates special registers readable by kernels.
type Special uint8

// Special registers, mirroring PTX %tid/%ctaid/%ntid/%nctaid etc.
const (
	SpecTIDX Special = iota
	SpecTIDY
	SpecCTAIDX
	SpecCTAIDY
	SpecNTIDX // workgroup size (threads per block), X
	SpecNTIDY
	SpecNCTAIDX // grid size (blocks), X
	SpecNCTAIDY
	SpecLaneID
	SpecWarpID     // warp index within workgroup
	SpecGlobalTID  // convenience: ctaid.x*ntid.x + tid.x
	SpecGlobalSize // convenience: nctaid.x*ntid.x
)

// specialNames maps Special values to their PTX-style mnemonics; the JSON
// codec uses the same table in both directions.
var specialNames = [...]string{"%tid.x", "%tid.y", "%ctaid.x", "%ctaid.y", "%ntid.x",
	"%ntid.y", "%nctaid.x", "%nctaid.y", "%laneid", "%warpid", "%gtid", "%gsize"}

// NumSpecials is one past the largest defined Special value.
const NumSpecials = int(SpecGlobalSize) + 1

func (s Special) String() string {
	if int(s) < len(specialNames) {
		return specialNames[s]
	}
	return "%spec?"
}

// Operand is one source operand of an instruction.
type Operand struct {
	Kind    OperandKind
	Reg     int     // OperandReg
	Imm     int64   // OperandImm
	Special Special // OperandSpecial
	Param   int     // OperandParam: index into Kernel.Params
}

// Reg returns a register operand.
func Reg(r int) Operand { return Operand{Kind: OperandReg, Reg: r} }

// Imm returns an immediate operand.
func Imm(v int64) Operand { return Operand{Kind: OperandImm, Imm: v} }

// FImm returns an immediate operand holding the bit pattern of f.
func FImm(f float64) Operand { return Operand{Kind: OperandImm, Imm: F2B(f)} }

// Spec returns a special-register operand.
func Spec(s Special) Operand { return Operand{Kind: OperandSpecial, Special: s} }

// Param returns a kernel-parameter operand.
func Param(i int) Operand { return Operand{Kind: OperandParam, Param: i} }

// String renders the operand in assembly-like syntax.
func (o Operand) String() string {
	switch o.Kind {
	case OperandReg:
		return fmt.Sprintf("r%d", o.Reg)
	case OperandImm:
		return fmt.Sprintf("%d", o.Imm)
	case OperandSpecial:
		return o.Special.String()
	case OperandParam:
		return fmt.Sprintf("param[%d]", o.Param)
	}
	return "_"
}

// Instr is a single IR instruction.
//
// Memory instructions address memory with Src[0] (base, a register or param
// holding a possibly tagged pointer) plus optional Src[1] (byte offset
// register/immediate). A register base models addressing Method B of the
// paper (full virtual address); a param base with a register offset models
// Method C (base + offset), the form eligible for the Type-3 pointer
// optimization (§5.3.3). Local accesses carry the local-variable index in
// Src[1] and the per-thread byte offset in Src[0].
type Instr struct {
	Op   Op
	Dst  int // destination register, -1 if none
	Src  [3]Operand
	Pred int  // guarding register (execute lanes where reg != 0); -1 unconditional
	PNeg bool // negate the guard

	Space Space // Ld/St/AtomAdd
	Bytes int   // access size in bytes for Ld/St/AtomAdd
	F32   bool  // 4-byte accesses hold float32 data converted to/from
	// float64 register bits (ld.f32/st.f32), so float workloads keep
	// realistic 4-byte memory footprints

	Label  int // branch target (instruction index), patched by the builder
	Reconv int // BraDiv reconvergence point (instruction index)
}

// String renders the instruction for debugging and disassembly listings.
func (in Instr) String() string {
	s := in.Op.String()
	if in.Op.IsMemory() {
		s += fmt.Sprintf(".%s.b%d", in.Space, in.Bytes*8)
	}
	if in.Dst >= 0 {
		s += fmt.Sprintf(" r%d,", in.Dst)
	}
	for i, src := range in.Src {
		if src.Kind == OperandNone {
			continue
		}
		if i > 0 {
			s += ","
		}
		s += " " + src.String()
	}
	if in.Op.IsBranch() {
		s += fmt.Sprintf(" -> @%d", in.Label)
		if in.Op == OpBraDiv {
			s += fmt.Sprintf(" reconv @%d", in.Reconv)
		}
	}
	if in.Pred >= 0 {
		neg := ""
		if in.PNeg {
			neg = "!"
		}
		s = fmt.Sprintf("@%sr%d %s", neg, in.Pred, s)
	}
	return s
}

// ParamKind distinguishes buffer-pointer parameters from scalar parameters.
type ParamKind uint8

// Parameter kinds.
const (
	ParamScalar ParamKind = iota
	ParamBuffer
)

// ParamSpec describes one kernel parameter.
type ParamSpec struct {
	Name     string
	Kind     ParamKind
	ReadOnly bool // buffer is never stored through (hint for the driver)
}

// LocalVar describes one local-memory (off-chip stack) variable. Each thread
// owns Bytes bytes; the driver lays variables out so that consecutive
// threads' copies of the same variable are spatially adjacent (paper §3.1).
type LocalVar struct {
	Name  string
	Bytes int // per-thread size
}

// Kernel is a complete IR program plus its interface metadata.
type Kernel struct {
	Name        string
	Params      []ParamSpec
	Locals      []LocalVar
	SharedBytes int // per-workgroup shared memory
	NumRegs     int // per-lane registers used
	Code        []Instr
}

// Equal reports whether a and b are deeply equal, exactly as
// reflect.DeepEqual(a, b) does: two nil kernels are equal, and a nil
// slice differs from an empty one. Every element type is comparable, so an
// instruction is compared with one !=.
func Equal(a, b *Kernel) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Name == b.Name && a.SharedBytes == b.SharedBytes && a.NumRegs == b.NumRegs &&
		sliceEqual(a.Params, b.Params) && sliceEqual(a.Locals, b.Locals) && sliceEqual(a.Code, b.Code)
}

// sliceEqual is reflect.DeepEqual on slices of a comparable type.
func sliceEqual[T comparable](x, y []T) bool {
	return (x == nil) == (y == nil) && slices.Equal(x, y)
}

// Validation sentinel errors. Validate wraps every rejection in one of
// these so callers (the fuzzer, the service's catalog loader, corpus
// replay) can classify build-time failures with errors.Is.
var (
	// ErrEmptyProgram rejects kernels with no instructions.
	ErrEmptyProgram = errors.New("kernel: empty program")
	// ErrBadOpcode rejects undefined opcode or operand-kind encodings.
	ErrBadOpcode = errors.New("kernel: invalid opcode or operand kind")
	// ErrBadRegister rejects register indices outside [0, NumRegs) (or a
	// Dst/Pred below the -1 "none" sentinel).
	ErrBadRegister = errors.New("kernel: register out of range")
	// ErrBadParam rejects parameter indices outside [0, len(Params)).
	ErrBadParam = errors.New("kernel: parameter out of range")
	// ErrBadBranch rejects branch targets or reconvergence points outside
	// the program, and malformed divergence scopes.
	ErrBadBranch = errors.New("kernel: invalid branch")
	// ErrBadAccess rejects malformed memory instructions: bad access
	// sizes, undefined spaces, negative shared allocations, shared
	// accesses wider than the shared allocation, or atomics outside global
	// space.
	ErrBadAccess = errors.New("kernel: invalid memory access")
	// ErrBadLocal rejects local variables with non-positive per-thread
	// sizes and local accesses naming no valid variable.
	ErrBadLocal = errors.New("kernel: invalid local variable")
	// ErrUninitRead rejects programs that read (or guard on) a register no
	// instruction ever writes; the simulator has no defined value for it.
	ErrUninitRead = errors.New("kernel: read of never-written register")
)

// Validate checks structural invariants: branch targets in range, register
// indices within NumRegs, params in range, opcode/operand encodings
// defined, local variables positively sized, memory accesses the simulator
// can perform, and every register read reachable from some write. It returns the first violation, wrapped in
// the matching sentinel error.
func (k *Kernel) Validate() error {
	n := len(k.Code)
	if n == 0 {
		return fmt.Errorf("%w: kernel %s", ErrEmptyProgram, k.Name)
	}
	if k.SharedBytes < 0 {
		return fmt.Errorf("%w: kernel %s: negative shared size %d", ErrBadAccess, k.Name, k.SharedBytes)
	}
	for _, lv := range k.Locals {
		if lv.Bytes <= 0 {
			return fmt.Errorf("%w: kernel %s: local %q has per-thread size %d",
				ErrBadLocal, k.Name, lv.Name, lv.Bytes)
		}
	}
	// First pass: every register some instruction writes.
	written := make(map[int]bool)
	for _, in := range k.Code {
		if in.Dst >= 0 {
			written[in.Dst] = true
		}
	}
	checkOperand := func(i int, o Operand) error {
		switch o.Kind {
		case OperandNone, OperandImm:
		case OperandReg:
			if o.Reg < 0 || o.Reg >= k.NumRegs {
				return fmt.Errorf("%w: kernel %s @%d: r%d outside [0,%d)", ErrBadRegister, k.Name, i, o.Reg, k.NumRegs)
			}
			if !written[o.Reg] {
				return fmt.Errorf("%w: kernel %s @%d: r%d", ErrUninitRead, k.Name, i, o.Reg)
			}
		case OperandSpecial:
			if int(o.Special) >= NumSpecials {
				return fmt.Errorf("%w: kernel %s @%d: special %d undefined", ErrBadOpcode, k.Name, i, o.Special)
			}
		case OperandParam:
			if o.Param < 0 || o.Param >= len(k.Params) {
				return fmt.Errorf("%w: kernel %s @%d: param %d", ErrBadParam, k.Name, i, o.Param)
			}
		default:
			return fmt.Errorf("%w: kernel %s @%d: operand kind %d undefined", ErrBadOpcode, k.Name, i, o.Kind)
		}
		return nil
	}
	for i, in := range k.Code {
		if in.Op > OpExit {
			return fmt.Errorf("%w: kernel %s @%d: opcode %d undefined", ErrBadOpcode, k.Name, i, in.Op)
		}
		if in.Dst < -1 || in.Dst >= k.NumRegs {
			return fmt.Errorf("%w: kernel %s @%d: dst r%d", ErrBadRegister, k.Name, i, in.Dst)
		}
		for _, src := range in.Src {
			if err := checkOperand(i, src); err != nil {
				return err
			}
		}
		if in.Pred < -1 || in.Pred >= k.NumRegs {
			return fmt.Errorf("%w: kernel %s @%d: guard r%d", ErrBadRegister, k.Name, i, in.Pred)
		}
		if in.Pred >= 0 && !written[in.Pred] {
			return fmt.Errorf("%w: kernel %s @%d: guard r%d", ErrUninitRead, k.Name, i, in.Pred)
		}
		if in.Op.IsBranch() {
			if in.Label < 0 || in.Label >= n {
				return fmt.Errorf("%w: kernel %s @%d: target @%d outside [0,%d)", ErrBadBranch, k.Name, i, in.Label, n)
			}
			if in.Op == OpBraDiv {
				if in.Reconv <= i || in.Reconv >= n {
					return fmt.Errorf("%w: kernel %s @%d: reconvergence @%d must be forward and in range", ErrBadBranch, k.Name, i, in.Reconv)
				}
				if in.Label > in.Reconv {
					return fmt.Errorf("%w: kernel %s @%d: divergent target @%d beyond reconvergence @%d", ErrBadBranch, k.Name, i, in.Label, in.Reconv)
				}
			}
		}
		if in.Op.IsMemory() {
			if in.Space > SpaceShared {
				return fmt.Errorf("%w: kernel %s @%d: space %d undefined", ErrBadAccess, k.Name, i, in.Space)
			}
			if in.Bytes != 1 && in.Bytes != 2 && in.Bytes != 4 && in.Bytes != 8 {
				return fmt.Errorf("%w: kernel %s @%d: bad access size %d", ErrBadAccess, k.Name, i, in.Bytes)
			}
			if in.Space == SpaceShared && k.SharedBytes > 0 && in.Bytes > k.SharedBytes {
				return fmt.Errorf("%w: kernel %s @%d: %d-byte shared access exceeds the %d-byte shared allocation",
					ErrBadAccess, k.Name, i, in.Bytes, k.SharedBytes)
			}
			if in.Op == OpAtomAdd && in.Space != SpaceGlobal {
				return fmt.Errorf("%w: kernel %s @%d: atomic in %s space (global only)", ErrBadAccess, k.Name, i, in.Space)
			}
			if in.Space == SpaceLocal && (in.Src[1].Kind != OperandImm ||
				in.Src[1].Imm < 0 || int(in.Src[1].Imm) >= len(k.Locals)) {
				return fmt.Errorf("%w: kernel %s @%d: local access needs a valid variable index", ErrBadLocal, k.Name, i)
			}
		}
	}
	return nil
}

// NumBuffers returns the number of buffer parameters — the quantity plotted
// in Fig. 1 of the paper.
func (k *Kernel) NumBuffers() int {
	n := 0
	for _, p := range k.Params {
		if p.Kind == ParamBuffer {
			n++
		}
	}
	return n
}

// MemOps returns the indices of all memory instructions, in program order.
func (k *Kernel) MemOps() []int {
	var idx []int
	for i, in := range k.Code {
		if in.Op.IsMemory() {
			idx = append(idx, i)
		}
	}
	return idx
}

// Disassemble renders the whole program, one instruction per line.
func (k *Kernel) Disassemble() string {
	s := ""
	for i, in := range k.Code {
		s += fmt.Sprintf("@%-4d %s\n", i, in.String())
	}
	return s
}
