package core

import "testing"

// TestRCacheFlushAfterInsert checks that a flush empties a bank an Insert
// filled, at both levels: no lookup hits afterwards, no slot stays valid,
// and the L1 FIFO cursor starts over.
func TestRCacheFlushAfterInsert(t *testing.T) {
	l1, l2 := NewL1RCache(4), NewL2RCache(8)
	for id := uint16(1); id <= 3; id++ {
		l1.Insert(2, id, NewBounds(uint64(id)<<12, 64, false))
		l2.Insert(2, id, NewBounds(uint64(id)<<12, 64, false))
	}
	if _, ok := l1.Lookup(2, 3); !ok {
		t.Fatal("L1 lookup missed an inserted entry")
	}
	if _, ok := l2.Lookup(2, 3); !ok {
		t.Fatal("L2 lookup missed an inserted entry")
	}
	l1.Flush()
	l2.Flush()
	for id := uint16(1); id <= 3; id++ {
		if _, ok := l1.Lookup(2, id); ok {
			t.Fatalf("L1 hit id %d after a flush", id)
		}
		if _, ok := l2.Lookup(2, id); ok {
			t.Fatalf("L2 hit id %d after a flush", id)
		}
	}
	for i, e := range l1.entries {
		if e.valid {
			t.Fatalf("L1 slot %d still valid after a flush", i)
		}
	}
	for i, e := range l2.entries {
		if e.valid || l2.lastUse[i] != 0 {
			t.Fatalf("L2 slot %d still valid or stamped after a flush", i)
		}
	}
	if l1.next != 0 {
		t.Fatalf("L1 FIFO cursor = %d after a flush, want 0", l1.next)
	}
}

// TestRCacheCleanFlushKeepsStatsAndClock flushes banks with no valid entry:
// the probe statistics and the L2 LRU clock must not move, and the banks
// must behave as fresh ones afterwards.
func TestRCacheCleanFlushKeepsStatsAndClock(t *testing.T) {
	l1, l2 := NewL1RCache(4), NewL2RCache(8)
	l1.Lookup(1, 5)
	l2.Lookup(1, 5)
	l2.Lookup(1, 6)
	s1, s2, tick := l1.Stats, l2.Stats, l2.tick
	l1.Flush()
	l2.Flush()
	if l1.Stats != s1 || l2.Stats != s2 || l2.tick != tick {
		t.Fatalf("clean flush moved the statistics or the clock: L1 %+v→%+v, L2 %+v→%+v, tick %d→%d",
			s1, l1.Stats, s2, l2.Stats, tick, l2.tick)
	}
	// After a flush of a bank that held entries, the next flush is clean
	// again and must not disturb the counters either.
	l2.Insert(1, 5, NewBounds(0x1000, 64, false))
	l2.Lookup(1, 5)
	l2.Flush()
	s2, tick = l2.Stats, l2.tick
	l2.Flush()
	if l2.Stats != s2 || l2.tick != tick {
		t.Fatalf("second flush moved the statistics or the clock")
	}
	if _, ok := l2.Lookup(1, 5); ok {
		t.Fatal("L2 hit after two flushes")
	}
}

// TestRemoveKernelClearsCorruptedEntries corrupts cached entries the way
// the fault campaign does and then removes the kernel: no slot of its bank
// may stay valid, so a reinstalled kernel refetches from the RBT.
func TestRemoveKernelClearsCorruptedEntries(t *testing.T) {
	b, key, id := newTestBCU(FailLog)
	b.Check(req(key, id, 0x1000, 0x1003, false))
	b.Check(req(key, 9, 0x8000, 0x8003, false))
	if !b.CorruptRCache(1, 1, 0, 0x3, 1<<40, 0x10) || !b.CorruptRCache(2, 1, 1, 0x5, 0, 0x20) {
		t.Fatal("the campaign's corruption found no occupied slot")
	}
	rbt := b.ctx(1).rbt
	b.RemoveKernel(1)
	bank := b.bank(1)
	for i, e := range b.l1[bank].entries {
		if e.valid {
			t.Fatalf("L1 slot %d still valid after RemoveKernel", i)
		}
	}
	for i, e := range b.l2[bank].entries {
		if e.valid {
			t.Fatalf("L2 slot %d still valid after RemoveKernel", i)
		}
	}
	b.InstallKernel(1, key, rbt, 0x7F00_0000)
	if res := b.Check(req(key, id, 0x1000, 0x1003, false)); !res.OK || res.Level != ServedRBT {
		t.Fatalf("check after reinstall = %+v, want an in-bounds RBT fetch", res)
	}
}

// TestInstallReusedContextInvalidatesMemo takes a CheckMemo, then
// reinstalls into the context slot the memo points at: after RemoveKernel,
// under the same kernel ID with another key and under a different kernel
// ID, and by installing over a kernel that is still installed. The memo must
// not resolve in any case; the checks must fail as a memo-less check does.
func TestInstallReusedContextInvalidatesMemo(t *testing.T) {
	const k1, k2 = uint64(0x1234_5678), uint64(0x0BAD_F00D)
	rbt := NewRBT()
	if err := rbt.Set(5, NewBounds(0x1000, 64, false)); err != nil {
		t.Fatal(err)
	}
	ptr := MakePointer(ClassID, EncryptID(5, k1), 0x1000)
	if DecryptID(Payload(ptr), k2) == 5 {
		t.Fatal("the second key decrypts the pointer to the same ID; pick another")
	}
	r := CheckRequest{KernelID: 9, Pointer: ptr, MinAddr: 0x1000, MaxAddr: 0x1003}
	for _, tc := range []struct {
		name   string
		remove bool
		reuse  uint16
	}{
		{"remove-then-same-id", true, 9},
		{"remove-then-other-id", true, 10},
		{"install-over-installed", false, 9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBCU(DefaultBCUConfig())
			b.InstallKernel(9, k1, rbt, 0)
			var memo CheckMemo
			if res := b.CheckWarm(r, &memo); !res.OK {
				t.Fatalf("first check failed: %+v", res)
			}
			if tc.remove {
				b.RemoveKernel(9)
			}
			b.InstallKernel(tc.reuse, k2, rbt, 0)
			if b.ctx(tc.reuse) != memo.ctx {
				t.Fatal("InstallKernel did not reuse the context slot the memo points at")
			}
			if res := b.CheckWarm(r, &memo); res.OK || res.Violation == nil || res.Violation.Kind != ViolationInvalidID {
				t.Fatalf("check through the stale memo = %+v, want an invalid-ID violation", res)
			}
		})
	}
}

// TestInstallKernelReusesContexts pins the allocation side of the reuse:
// once a BCU has held as many kernels at once as a launch pattern needs,
// installing and removing them allocates nothing.
func TestInstallKernelReusesContexts(t *testing.T) {
	b := NewBCU(DefaultBCUConfig())
	rbt := NewRBT()
	cycle := func() {
		b.InstallKernel(3, 1, rbt, 0)
		b.InstallKernel(4, 2, rbt, 0)
		b.RemoveKernel(3)
		b.RemoveKernel(4)
	}
	cycle()
	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Fatalf("install/remove of two kernels allocated %.1f objects, want 0", n)
	}
	if len(b.kernels) != 0 || b.ctx(3) != nil || b.ctx(4) != nil {
		t.Fatalf("removed kernels still installed: %d contexts", len(b.kernels))
	}
}
