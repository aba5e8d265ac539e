package sim

import (
	"errors"
	"testing"

	"gpushield/internal/driver"
	"gpushield/internal/kernel"
)

// TestPrepareLaunchRejectsBadAccess covers two memory shapes the
// simulator cannot run: an 8-byte shared load in a 4-byte shared
// allocation (the LSU would index before the scratchpad) and an atomic in
// shared space (the IR defines atomics for global space only). Both must
// stop at PrepareLaunch with kernel.ErrBadAccess; neither reaches a GPU.
func TestPrepareLaunchRejectsBadAccess(t *testing.T) {
	mk := func(ld kernel.Instr) *kernel.Kernel {
		return &kernel.Kernel{
			Name:        "bad_access",
			Params:      []kernel.ParamSpec{{Name: "p", Kind: kernel.ParamBuffer}},
			SharedBytes: 4,
			NumRegs:     2,
			Code: []kernel.Instr{
				{Op: kernel.OpMov, Dst: 0, Src: [3]kernel.Operand{kernel.Imm(0)}, Pred: -1},
				ld,
				{Op: kernel.OpSt, Dst: -1, Src: [3]kernel.Operand{kernel.Param(0), {}, kernel.Reg(1)},
					Pred: -1, Space: kernel.SpaceGlobal, Bytes: 8},
				{Op: kernel.OpExit, Dst: -1, Pred: -1},
			},
		}
	}
	cases := map[string]kernel.Instr{
		"wide-shared-load": {Op: kernel.OpLd, Dst: 1, Src: [3]kernel.Operand{kernel.Reg(0)},
			Pred: -1, Space: kernel.SpaceShared, Bytes: 8},
		"shared-atomic": {Op: kernel.OpAtomAdd, Dst: 1, Src: [3]kernel.Operand{kernel.Reg(0), {}, kernel.Imm(1)},
			Pred: -1, Space: kernel.SpaceShared, Bytes: 4},
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			dev := driver.NewDevice(1)
			buf := dev.Malloc("p", 256, false)
			_, err := dev.PrepareLaunch(mk(in), 1, 32, []driver.Arg{driver.BufArg(buf)}, driver.ModeOff, nil)
			if !errors.Is(err, kernel.ErrBadAccess) || !errors.Is(err, driver.ErrInvalidLaunch) {
				t.Fatalf("PrepareLaunch: err = %v, want ErrInvalidLaunch wrapping ErrBadAccess", err)
			}
		})
	}
}
