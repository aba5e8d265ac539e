package kernel

import (
	"errors"
	"testing"
)

// valid returns a minimal well-formed kernel the corruption tests start from.
func valid() *Kernel {
	return &Kernel{
		Name:    "v",
		Params:  []ParamSpec{{Name: "d", Kind: ParamBuffer}},
		Locals:  []LocalVar{{Name: "tmp", Bytes: 8}},
		NumRegs: 2,
		Code: []Instr{
			{Op: OpMov, Dst: 0, Src: [3]Operand{Imm(0)}, Pred: -1},
			{Op: OpSt, Dst: -1, Src: [3]Operand{Param(0), {}, Reg(0)}, Pred: -1, Space: SpaceGlobal, Bytes: 8},
			{Op: OpExit, Dst: -1, Pred: -1},
		},
	}
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	if err := valid().Validate(); err != nil {
		t.Fatalf("valid kernel rejected: %v", err)
	}
}

// TestValidateSentinels drives every corruption the fuzzer's negative
// generator can plant and asserts the matching sentinel comes back. Before
// the hardening, several of these were accepted by Validate and surfaced as
// simulator panics instead.
func TestValidateSentinels(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(*Kernel)
		want    error
	}{
		{"empty-program", func(k *Kernel) { k.Code = nil }, ErrEmptyProgram},
		{"branch-target-past-end", func(k *Kernel) {
			k.Code[2] = Instr{Op: OpBraUni, Dst: -1, Pred: -1, Label: 99}
		}, ErrBadBranch},
		{"branch-target-negative", func(k *Kernel) {
			k.Code[2] = Instr{Op: OpBraUni, Dst: -1, Pred: -1, Label: -1}
		}, ErrBadBranch},
		{"reconv-backward", func(k *Kernel) {
			k.Code[1] = Instr{Op: OpBraDiv, Dst: -1, Pred: 0, Label: 0, Reconv: 0}
		}, ErrBadBranch},
		{"read-never-written-reg", func(k *Kernel) {
			k.Code[1].Src[2] = Reg(1) // r1 has no def anywhere
		}, ErrUninitRead},
		{"guard-never-written-reg", func(k *Kernel) {
			k.Code[1].Pred = 1
		}, ErrUninitRead},
		{"local-zero-bytes", func(k *Kernel) { k.Locals[0].Bytes = 0 }, ErrBadLocal},
		{"local-negative-bytes", func(k *Kernel) { k.Locals[0].Bytes = -8 }, ErrBadLocal},
		{"local-access-bad-var", func(k *Kernel) {
			k.Code[1] = Instr{Op: OpLd, Dst: 0, Src: [3]Operand{Imm(0), Imm(3)}, Pred: -1, Space: SpaceLocal, Bytes: 8}
		}, ErrBadLocal},
		{"dst-below-none", func(k *Kernel) { k.Code[0].Dst = -2 }, ErrBadRegister},
		{"dst-past-numregs", func(k *Kernel) { k.Code[0].Dst = 2 }, ErrBadRegister},
		{"pred-below-none", func(k *Kernel) { k.Code[1].Pred = -2 }, ErrBadRegister},
		{"src-reg-out-of-range", func(k *Kernel) { k.Code[1].Src[2] = Reg(7) }, ErrBadRegister},
		{"param-out-of-range", func(k *Kernel) { k.Code[1].Src[0] = Param(5) }, ErrBadParam},
		{"undefined-opcode", func(k *Kernel) { k.Code[0].Op = OpExit + 1 }, ErrBadOpcode},
		{"undefined-operand-kind", func(k *Kernel) {
			k.Code[0].Src[0].Kind = OperandParam + 1
		}, ErrBadOpcode},
		{"undefined-special", func(k *Kernel) {
			k.Code[0].Src[0] = Spec(Special(NumSpecials))
		}, ErrBadOpcode},
		{"bad-access-size", func(k *Kernel) { k.Code[1].Bytes = 3 }, ErrBadAccess},
		{"undefined-space", func(k *Kernel) { k.Code[1].Space = SpaceShared + 1 }, ErrBadAccess},
		{"negative-shared", func(k *Kernel) { k.SharedBytes = -1 }, ErrBadAccess},
		{"shared-access-wider-than-allocation", func(k *Kernel) {
			k.SharedBytes = 4
			k.Code[1].Space = SpaceShared // 8-byte store into 4 bytes
		}, ErrBadAccess},
		{"atomic-in-shared-space", func(k *Kernel) {
			k.SharedBytes = 64
			k.Code[1] = Instr{Op: OpAtomAdd, Dst: 0, Src: [3]Operand{Reg(0), {}, Imm(1)}, Pred: -1, Space: SpaceShared, Bytes: 4}
		}, ErrBadAccess},
		{"atomic-in-local-space", func(k *Kernel) {
			k.Code[1] = Instr{Op: OpAtomAdd, Dst: 0, Src: [3]Operand{Reg(0), Imm(0), Imm(1)}, Pred: -1, Space: SpaceLocal, Bytes: 4}
		}, ErrBadAccess},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := valid()
			tc.corrupt(k)
			err := k.Validate()
			if err == nil {
				t.Fatalf("corruption accepted by Validate")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want sentinel %v", err, tc.want)
			}
		})
	}
}

// TestValidateSharedAccessFits keeps the accepted side of the shared-width
// rule: an access exactly as wide as the allocation, and any width when the
// kernel has no shared allocation (such loads read zero).
func TestValidateSharedAccessFits(t *testing.T) {
	for _, shared := range []int{0, 8} {
		k := valid()
		k.SharedBytes = shared
		k.Code[1].Space = SpaceShared
		if err := k.Validate(); err != nil {
			t.Errorf("SharedBytes=%d: 8-byte shared store rejected: %v", shared, err)
		}
	}
}
