package core

import (
	"reflect"
	"testing"
)

// CheckWarm contract (PR 10): a caller-held CheckMemo may skip only the
// kernel-table lookup and the Feistel payload decryption. Everything
// observable — results, violations, stall accounting, RCache and BCU
// counters — must be indistinguishable from plain Check, and the memo must
// go stale the instant any per-kernel decrypt state changes.

// twinBCUs builds two identically-programmed BCUs (same kernel, key, RBT
// contents) so one can run Check and the other CheckWarm with no shared
// mutable state.
func twinBCUs(mode FailureMode) (*BCU, *BCU, uint64, uint16) {
	a, key, id := newTestBCU(mode)
	b, _, _ := newTestBCU(mode)
	return a, b, key, id
}

// TestCheckWarmMatchesCheck streams a mixed request sequence — hits,
// misses, OOB, read-only stores, a foreign buffer tag — through Check on
// one BCU and CheckWarm (single reused memo) on its twin, and demands
// identical results and identical counter state after every step.
func TestCheckWarmMatchesCheck(t *testing.T) {
	cold, warm, key, id := twinBCUs(FailLog)
	var memo CheckMemo
	seq := []CheckRequest{
		req(key, id, 0x1000, 0x1003, false),   // RBT fetch, then caches warm
		req(key, id, 0x1004, 0x1007, false),   // L1 hit, memo hit
		req(key, id, 0x13FC, 0x13FF, true),    // last word, store
		req(key, id, 0x1400, 0x1403, false),   // one past the end: OOB
		req(key, 9, 0x8000, 0x8003, false),    // different tag: memo misses
		req(key, 9, 0x8000, 0x8003, true),     // read-only store: violation
		req(key, id, 0x1008, 0x100B, false),   // back to the first tag
		req(key, 12345, 0x1000, 0x1003, true), // unknown ID
	}
	for i, r := range seq {
		want := cold.Check(r)
		got := warm.CheckWarm(r, &memo)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: CheckWarm=%+v Check=%+v", i, got, want)
		}
	}
	if !reflect.DeepEqual(warm.Stats, cold.Stats) {
		t.Fatalf("BCU stats diverged:\nwarm %+v\ncold %+v", warm.Stats, cold.Stats)
	}
	if warm.L1Stats() != cold.L1Stats() || warm.L2Stats() != cold.L2Stats() {
		t.Fatalf("RCache stats diverged: warm L1=%+v L2=%+v, cold L1=%+v L2=%+v",
			warm.L1Stats(), warm.L2Stats(), cold.L1Stats(), cold.L2Stats())
	}
	if len(warm.Violations()) != len(cold.Violations()) {
		t.Fatalf("violation logs diverged: %d vs %d", len(warm.Violations()), len(cold.Violations()))
	}
}

// TestCheckWarmMemoLifecycle verifies the memo is populated on the first
// Type-2 check, hit on a same-tag repeat, and re-resolved on a tag switch.
func TestCheckWarmMemoLifecycle(t *testing.T) {
	b, key, id := newTestBCU(FailLog)
	var memo CheckMemo
	if memo.resolve {
		t.Fatal("zero memo must be empty")
	}
	b.CheckWarm(req(key, id, 0x1000, 0x1003, false), &memo)
	if !memo.resolve || memo.id != id {
		t.Fatalf("memo not populated: %+v", memo)
	}
	first := memo
	b.CheckWarm(req(key, id, 0x1004, 0x1007, false), &memo)
	if memo != first {
		t.Fatalf("same-tag repeat rewrote the memo: %+v -> %+v", first, memo)
	}
	b.CheckWarm(req(key, 9, 0x8000, 0x8003, false), &memo)
	if memo.id != 9 {
		t.Fatalf("tag switch did not re-resolve: %+v", memo)
	}
}

// TestCheckWarmGenInvalidation covers every decrypt-state mutation that
// must kill outstanding memos: kernel reinstall with a new key, kernel
// removal, and key perturbation. After each, CheckWarm must behave exactly
// like a cold Check — never replay the stale resolution.
func TestCheckWarmGenInvalidation(t *testing.T) {
	t.Run("reinstall-new-key", func(t *testing.T) {
		b, key, id := newTestBCU(FailLog)
		var memo CheckMemo
		b.CheckWarm(req(key, id, 0x1000, 0x1003, false), &memo)
		// Reinstall kernel 1 under a new key: pointers minted with the old
		// key must now decrypt to garbage and fail.
		rbt := NewRBT()
		rbt.Set(7, NewBounds(0x1000, 0x400, false))
		b.InstallKernel(1, key^0xBAD, rbt, 0x7F00_0000)
		res := b.CheckWarm(req(key, id, 0x1000, 0x1003, false), &memo)
		if res.OK {
			t.Fatal("stale memo replayed across kernel reinstall")
		}
	})
	t.Run("remove-kernel", func(t *testing.T) {
		b, key, id := newTestBCU(FailLog)
		var memo CheckMemo
		b.CheckWarm(req(key, id, 0x1000, 0x1003, false), &memo)
		b.RemoveKernel(1)
		res := b.CheckWarm(req(key, id, 0x1000, 0x1003, false), &memo)
		if res.OK || res.Violation == nil || res.Violation.Kind != ViolationInvalidID {
			t.Fatalf("stale memo replayed across kernel removal: %+v", res)
		}
	})
	t.Run("perturb-key", func(t *testing.T) {
		cold, warm, key, id := twinBCUs(FailLog)
		var memo CheckMemo
		warm.CheckWarm(req(key, id, 0x1000, 0x1003, false), &memo)
		cold.Check(req(key, id, 0x1000, 0x1003, false))
		if !warm.PerturbKey(1, 0x40) || !cold.PerturbKey(1, 0x40) {
			t.Fatal("PerturbKey refused")
		}
		r := req(key, id, 0x1004, 0x1007, false)
		got, want := warm.CheckWarm(r, &memo), cold.Check(r)
		if got.OK || !reflect.DeepEqual(got, want) {
			t.Fatalf("post-perturb divergence: CheckWarm=%+v Check=%+v", got, want)
		}
	})
}

// TestCheckWarmCorruptionReadsLive asserts the memo survives RCache
// corruption — bounds are never memoized, so a corrupted cached entry must
// affect CheckWarm exactly as it affects Check, with no gen bump needed.
func TestCheckWarmCorruptionReadsLive(t *testing.T) {
	cold, warm, key, id := twinBCUs(FailLog)
	var memo CheckMemo
	// Warm both: entry for id 7 now sits in each L1 RCache.
	warm.CheckWarm(req(key, id, 0x1000, 0x1003, false), &memo)
	cold.Check(req(key, id, 0x1000, 0x1003, false))
	// Zero the cached size field in slot 0 of both L1s identically
	// (0x400 ^ 0x400): every in-bounds access is now OOB per the cache.
	if !warm.CorruptRCache(1, 1, 0, 0, 0, 0x400) || !cold.CorruptRCache(1, 1, 0, 0, 0, 0x400) {
		t.Fatal("CorruptRCache refused")
	}
	r := req(key, id, 0x1200, 0x1203, false) // inside real bounds, outside corrupted ones
	got, want := warm.CheckWarm(r, &memo), cold.Check(r)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("corruption visibility diverged: CheckWarm=%+v Check=%+v", got, want)
	}
	if got.OK {
		t.Fatalf("corrupted bounds not read live: %+v", got)
	}
}
