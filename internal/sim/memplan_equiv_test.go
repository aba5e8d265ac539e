package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"gpushield/internal/core"
	"gpushield/internal/driver"
	"gpushield/internal/kernel"
)

// Memory-plan edge-case equivalence (PR 10 tentpole): every scenario runs
// twice per core-parallel width — once on the planned AGU + transaction-check
// fast path and once with Config.NoMemPlans forcing the reference per-lane
// memory path — and the complete LaunchStats reports (RCache hit/miss counts,
// BCU stall and bubble accounting, violation records, abort state) plus the
// output buffer bytes must be identical. The scenarios aim at the joints of
// the rebuild: guard masks that diverge mid-loop (lane-list and geometry
// caches keyed by mask), accesses that straddle cache lines (transaction
// counting and the single-transaction bubble), out-of-bounds tagged accesses
// (the verdict cache must not swallow violations, in either failure mode),
// and unmapped addresses (the range-mapped page check must fall back to the
// reference per-lane walk and abort with the same first offender).

var mpEquivWidths = []int{1, 2, 4}

// mpEquivRun executes one launch of k and returns its report and the output
// buffer contents. mode selects driver.ModeOff/ModeShield; fail is the BCU
// failure mode (ignored in ModeOff).
func mpEquivRun(t *testing.T, k *kernel.Kernel, grid, block int, noPlans bool,
	width int, mode driver.Mode, fail core.FailureMode, bufWords int) (*LaunchStats, []byte) {
	t.Helper()
	dev := driver.NewDevice(1)
	buf := dev.Malloc("p", uint64(bufWords)*4, false)
	cfg := NvidiaConfig()
	cfg.NoMemPlans = noPlans
	cfg.CoreParallel = width
	if mode == driver.ModeShield {
		bcu := core.DefaultBCUConfig()
		bcu.Mode = fail
		cfg = cfg.WithShield(bcu)
	}
	l, err := dev.PrepareLaunch(k, grid, block, []driver.Arg{driver.BufArg(buf)}, mode, nil)
	if err != nil {
		t.Fatal(err)
	}
	gpu := New(cfg, dev)
	st, err := gpu.Run(l)
	if err != nil {
		t.Fatal(err)
	}
	return st, dev.Mem.ReadBytes(buf.Base, bufWords*4)
}

// mpEquivCompare runs the scenario on both memory paths at every width and
// fails on any divergence in stats or memory.
func mpEquivCompare(t *testing.T, k *kernel.Kernel, grid, block int,
	mode driver.Mode, fail core.FailureMode, bufWords int) {
	t.Helper()
	for _, w := range mpEquivWidths {
		t.Run(fmt.Sprintf("width=%d", w), func(t *testing.T) {
			ref, refMem := mpEquivRun(t, k, grid, block, true, w, mode, fail, bufWords)
			got, gotMem := mpEquivRun(t, k, grid, block, false, w, mode, fail, bufWords)
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("stats diverged from per-lane reference:\n got: %+v\nwant: %+v", got, ref)
			}
			if !reflect.DeepEqual(gotMem, refMem) {
				t.Error("output buffer diverged from per-lane reference")
			}
		})
	}
}

// TestMemPlanEquivDivergentMasks issues loads through both addressing
// methods under guard masks that change every iteration: an If splits the
// warp at a lane threshold that moves with the loop counter, so the
// lane-list cache and the Method C geometry cache are repeatedly
// invalidated and rebuilt, and partially-masked transactions must coalesce
// to the same line sets as the reference per-lane walk.
func TestMemPlanEquivDivergentMasks(t *testing.T) {
	const n = 4096
	kb := kernel.NewBuilder("mp_diverge")
	p := kb.BufferParam("p", false)
	gtid := kb.GlobalTID()
	lane := kb.Mov(kb.LaneID())
	acc := kb.Mov(kernel.Imm(0))
	kb.ForRange(kernel.Imm(0), kernel.Imm(8), kernel.Imm(1), func(i kernel.Operand) {
		c := kb.SetLT(lane, kb.Add(kernel.Imm(4), kb.Mul(i, kernel.Imm(3))))
		kb.If(c, func() {
			idx := kb.And(kb.Add(gtid, i), kernel.Imm(n-1))
			v := kb.LoadGlobal(kb.AddScaled(p, idx, 4), 4) // Method B
			kb.MovTo(acc, kb.Add(acc, v))
		})
		// Full-mask Method C load at the reconvergence point.
		w := kb.LoadGlobalOfs(p, kb.Mul(kb.And(gtid, kernel.Imm(n-1)), kernel.Imm(4)), 4)
		kb.MovTo(acc, kb.Add(acc, w))
	})
	kb.StoreGlobalOfs(p, kb.Mul(kb.And(gtid, kernel.Imm(n-1)), kernel.Imm(4)), acc, 4)
	mpEquivCompare(t, kb.MustBuild(), 4, 128, driver.ModeShield, core.FailLog, n)
}

// TestMemPlanEquivStraddling covers the transaction-count edges: 4-byte
// loads placed so most of them span two cache lines, 8-byte loads at +4
// alignment (every lane straddles), and a uniform load where all lanes hit
// one word — the single-transaction case whose L1D-hit bubble is the one
// cycle of BCU timing visible to the scheduler.
func TestMemPlanEquivStraddling(t *testing.T) {
	const n = 4096
	kb := kernel.NewBuilder("mp_straddle")
	p := kb.BufferParam("p", false)
	gtid := kb.GlobalTID()
	acc := kb.Mov(kernel.Imm(0))
	kb.ForRange(kernel.Imm(0), kernel.Imm(4), kernel.Imm(1), func(i kernel.Operand) {
		idx := kb.And(kb.Add(gtid, i), kernel.Imm(n-9))
		// Unit stride shifted to 2 bytes past a line boundary: a 4-byte
		// access at (idx*4)+126 straddles whenever idx*4%128 == 124.
		a := kb.Add(kb.AddScaled(p, idx, 4), kernel.Imm(126))
		kb.MovTo(acc, kb.Add(acc, kb.LoadGlobal(a, 2)))
		// 8-byte loads at +4: every lane spans two words.
		b8 := kb.LoadGlobalOfs(p, kb.Add(kb.Mul(idx, kernel.Imm(4)), kernel.Imm(4)), 8)
		kb.MovTo(acc, kb.Add(acc, b8))
		// Uniform: whole warp reads word i — one line, one transaction.
		u := kb.LoadGlobalOfs(p, kb.Mul(i, kernel.Imm(4)), 4)
		kb.MovTo(acc, kb.Add(acc, u))
	})
	kb.StoreGlobal(kb.AddScaled(p, kb.And(gtid, kernel.Imm(n-1)), 4), acc, 4)
	mpEquivCompare(t, kb.MustBuild(), 4, 128, driver.ModeShield, core.FailLog, n)
}

// TestMemPlanEquivOOBViolations drives tagged accesses out of bounds in
// both failure modes. In FailLog the violating loads are squashed to zero
// and the stores dropped, with one violation record per offending
// transaction; in FailFault the first check trips a precise fault and
// aborts the launch mid-flight (on the parallel scheduler this is the
// hazard that forces a serial re-run). Reports must match the per-lane
// reference exactly in both modes.
func TestMemPlanEquivOOBViolations(t *testing.T) {
	const n = 1024
	build := func() *kernel.Kernel {
		kb := kernel.NewBuilder("mp_oob")
		p := kb.BufferParam("p", false)
		gtid := kb.GlobalTID()
		acc := kb.Mov(kernel.Imm(0))
		// In-bounds warm-up so the verdict cache holds a pass verdict for
		// this (pc, buffer) pair before the same buffer goes out of bounds
		// through a different pc.
		kb.ForRange(kernel.Imm(0), kernel.Imm(2), kernel.Imm(1), func(i kernel.Operand) {
			idx := kb.And(kb.Add(gtid, i), kernel.Imm(n-1))
			kb.MovTo(acc, kb.Add(acc, kb.LoadGlobal(kb.AddScaled(p, idx, 4), 4)))
		})
		// Past-the-end load and store: gtid + n overflows the region.
		bad := kb.Add(gtid, kernel.Imm(n))
		kb.MovTo(acc, kb.Add(acc, kb.LoadGlobal(kb.AddScaled(p, bad, 4), 4)))
		kb.StoreGlobal(kb.AddScaled(p, bad, 4), acc, 4)
		kb.StoreGlobal(kb.AddScaled(p, kb.And(gtid, kernel.Imm(n-1)), 4), acc, 4)
		return kb.MustBuild()
	}
	for _, fail := range []core.FailureMode{core.FailLog, core.FailFault} {
		name := "log"
		if fail == core.FailFault {
			name = "fault"
		}
		t.Run(name, func(t *testing.T) {
			k := build()
			// Sanity: the scenario really trips the BCU on the fast path.
			st, _ := mpEquivRun(t, k, 2, 64, false, 1, driver.ModeShield, fail, n)
			if fail == core.FailLog && len(st.Violations) == 0 {
				t.Fatal("scenario recorded no violations")
			}
			if fail == core.FailFault && !st.Aborted {
				t.Fatal("scenario did not fault")
			}
			mpEquivCompare(t, k, 2, 64, driver.ModeShield, fail, n)
		})
	}
}

// TestMemPlanEquivUnmapped reaches addresses far past every mapped page in
// ModeOff (no BCU to squash them): the range-mapped fast check must reject
// the span and the per-lane fallback must abort on the same first-offender
// lane with the same message, at every width, on both paths.
func TestMemPlanEquivUnmapped(t *testing.T) {
	const n = 1024
	kb := kernel.NewBuilder("mp_unmapped")
	p := kb.BufferParam("p", false)
	gtid := kb.GlobalTID()
	acc := kb.Mov(kernel.Imm(0))
	kb.ForRange(kernel.Imm(0), kernel.Imm(2), kernel.Imm(1), func(i kernel.Operand) {
		idx := kb.And(kb.Add(gtid, i), kernel.Imm(n-1))
		kb.MovTo(acc, kb.Add(acc, kb.LoadGlobal(kb.AddScaled(p, idx, 4), 4)))
	})
	// 1 MiB past the end of the buffer: unmapped for every lane.
	bad := kb.Add(gtid, kernel.Imm(1<<18))
	kb.MovTo(acc, kb.Add(acc, kb.LoadGlobal(kb.AddScaled(p, bad, 4), 4)))
	kb.StoreGlobal(kb.AddScaled(p, kb.And(gtid, kernel.Imm(n-1)), 4), acc, 4)
	k := kb.MustBuild()
	// Sanity: the scenario really aborts on a page fault on the fast path.
	st, _ := mpEquivRun(t, k, 2, 64, false, 1, driver.ModeOff, core.FailLog, n)
	if !st.Aborted || !strings.Contains(st.AbortMsg, "illegal memory access") {
		t.Fatalf("scenario did not page-fault: aborted=%v msg=%q", st.Aborted, st.AbortMsg)
	}
	mpEquivCompare(t, k, 2, 64, driver.ModeOff, core.FailLog, n)
}

// TestMemPlanEquivNarrowStride loads 4-byte words at a 1-byte stride, so
// neighbouring lanes overlap and the lanes near a line boundary each touch
// both lines: deduplicating against the last emitted line is not enough
// there, and the planned coalescer must emit exactly the reference's
// three transactions, not one per straddling lane.
func TestMemPlanEquivNarrowStride(t *testing.T) {
	const n = 4096
	kb := kernel.NewBuilder("mp_narrow")
	p := kb.BufferParam("p", false)
	gtid := kb.GlobalTID()
	v := kb.LoadGlobalOfs(p, kb.Add(kb.LaneID(), kernel.Imm(124)), 4)
	w := kb.LoadGlobal(kb.Add(kb.Add(p, kernel.Imm(250)), kb.LaneID()), 4)
	kb.StoreGlobal(kb.AddScaled(p, kb.And(gtid, kernel.Imm(n-1)), 4), kb.Add(v, w), 4)
	mpEquivCompare(t, kb.MustBuild(), 2, 64, driver.ModeShield, core.FailLog, n)
}

// TestMemPlanEquivUniformStores has every active lane of a warp store a
// different value to one address, so memory must end up holding the last
// active lane's value, as the reference's lane-by-lane writes leave it. The
// stores are 4- and 8-byte and f32, through both addressing methods, with
// all lanes active, with a guard that leaves the top lanes inactive, and
// with an active mask that has holes and ends below lane 31.
func TestMemPlanEquivUniformStores(t *testing.T) {
	const n = 1024
	kb := kernel.NewBuilder("mp_uniform_store")
	p := kb.BufferParam("p", false)
	gtid := kb.GlobalTID()
	lane := kb.Mov(kb.LaneID())
	// A vector-shaped value (loaded) and an affine one, both distinct per
	// lane.
	vec := kb.Add(kb.LoadGlobal(kb.AddScaled(p, kb.And(gtid, kernel.Imm(255)), 4), 4), kb.Mul(lane, kernel.Imm(1000)))
	aff := kb.Add(kb.Mul(gtid, kernel.Imm(13)), kernel.Imm(5))
	kb.StoreGlobal(kb.AddScaled(p, kernel.Imm(300), 4), aff, 4)
	kb.StoreGlobal(kb.AddScaled(p, kernel.Imm(302), 4), vec, 8)
	kb.StoreGlobalOfs(p, kernel.Imm(4*306), vec, 4)
	kb.StoreGlobalOfsF32(p, kernel.Imm(4*307), kb.CvtIF(aff))
	kb.If(kb.SetLT(lane, kernel.Imm(20)), func() {
		kb.StoreGlobal(kb.AddScaled(p, kernel.Imm(310), 4), vec, 4)
		kb.StoreGlobalOfs(p, kernel.Imm(4*312), aff, 8)
	})
	kb.If(kb.SetNE(kb.And(lane, kernel.Imm(6)), kernel.Imm(6)), func() {
		kb.StoreGlobal(kb.AddScaled(p, kernel.Imm(320), 4), aff, 8)
		kb.StoreGlobalOfs(p, kernel.Imm(4*324), vec, 4)
		kb.StoreGlobalF32(kb.AddScaled(p, kernel.Imm(325), 4), kb.CvtIF(vec))
	})
	k := kb.MustBuild()
	// Sanity: the stores land, and not with lane 0's or lane 31's value.
	_, mem := mpEquivRun(t, k, 1, 32, false, 1, driver.ModeShield, core.FailLog, n)
	word := func(i int) uint32 {
		return uint32(mem[4*i]) | uint32(mem[4*i+1])<<8 | uint32(mem[4*i+2])<<16 | uint32(mem[4*i+3])<<24
	}
	for _, c := range []struct{ word, lane int }{{300, 31}, {312, 19}, {320, 29}} {
		if got, want := word(c.word), uint32(13*c.lane+5); got != want {
			t.Fatalf("word %d = %d, want lane %d's %d", c.word, got, c.lane, want)
		}
	}
	mpEquivCompare(t, k, 3, 64, driver.ModeShield, core.FailLog, n)
	mpEquivCompare(t, k, 2, 96, driver.ModeOff, core.FailLog, n)
}
