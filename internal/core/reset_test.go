package core

import "testing"

// TestBCUResetInvalidatesCheckMemo pins the generation rule: Reset moves gen
// forward, so a CheckMemo filled before the reset cannot resolve a pointer
// afterwards through the kernel context the reset dropped.
func TestBCUResetInvalidatesCheckMemo(t *testing.T) {
	b := NewBCU(DefaultBCUConfig())
	rbt := NewRBT()
	if err := rbt.Set(5, NewBounds(0x1000, 64, false)); err != nil {
		t.Fatal(err)
	}
	const key = 0x1234_5678
	b.InstallKernel(9, key, rbt, 0)
	req := CheckRequest{KernelID: 9, Pointer: MakePointer(ClassID, EncryptID(5, key), 0x1000),
		MinAddr: 0x1000, MaxAddr: 0x1003}
	var memo CheckMemo
	if res := b.CheckWarm(req, &memo); !res.OK {
		t.Fatalf("in-bounds check failed before the reset: %+v", res)
	}
	gen := b.gen

	b.Reset()
	if b.gen <= gen {
		t.Fatalf("Reset moved gen from %d to %d; it must only move forward", gen, b.gen)
	}
	res := b.CheckWarm(req, &memo)
	if res.OK || res.Violation == nil || res.Violation.Kind != ViolationInvalidID {
		t.Fatalf("check after reset with a stale memo = %+v, want an invalid-ID violation", res)
	}
	if s := b.L1Stats(); s.Accesses != 0 {
		t.Fatalf("stale memo reached the RCaches after reset: %+v", s)
	}
}
