package sim

import (
	"testing"

	"gpushield/internal/driver"
	"gpushield/internal/kernel"
)

// Regression tests for the PR 3 satellite fixes: discard-destination loads
// (Dst = -1) must not index the register file, atomicBusy must be pruned
// between launches, and the per-warp operand plans must agree with the
// per-lane reference interpreter.

// buildDiscardLoad emits loads whose destination register is discarded
// (Dst = -1), in both global and shared space. The builder API never
// produces these, so they are emitted raw — the IR validator accepts them.
func buildDiscardLoad(t *testing.T) *kernel.Kernel {
	t.Helper()
	kb := kernel.NewBuilder("discardload")
	p := kb.BufferParam("p", false)
	kb.Shared(256)
	gtid := kb.GlobalTID()
	addr := kb.AddScaled(p, gtid, 4)
	kb.Emit(kernel.Instr{
		Op: kernel.OpLd, Space: kernel.SpaceGlobal, Bytes: 4,
		Dst: -1, Pred: -1,
		Src: [3]kernel.Operand{addr},
	})
	kb.Emit(kernel.Instr{
		Op: kernel.OpLd, Space: kernel.SpaceShared, Bytes: 4,
		Dst: -1, Pred: -1,
		Src: [3]kernel.Operand{gtid},
	})
	kb.StoreGlobal(addr, kernel.Imm(7), 4)
	return kb.MustBuild()
}

func TestDiscardDestinationLoadDoesNotPanic(t *testing.T) {
	k := buildDiscardLoad(t)
	dev := driver.NewDevice(1)
	buf := dev.Malloc("p", 256*4, false)
	l, err := dev.PrepareLaunch(k, 2, 128, []driver.Arg{driver.BufArg(buf)}, driver.ModeOff, nil)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	st, err := New(NvidiaConfig(), dev).Run(l)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if st.Aborted {
		t.Fatalf("aborted: %s", st.AbortMsg)
	}
	// The discarded loads still count as memory instructions and pay timing.
	if st.MemInstrs == 0 {
		t.Fatal("no memory instructions recorded")
	}
	if got := dev.ReadUint32(buf, 0); got != 7 {
		t.Fatalf("store after discard loads: got %d want 7", got)
	}
}

// TestAtomicBusyPruned locks the leak fix: the per-word atomic serialization
// map must not accumulate entries across launches on the same GPU.
func TestAtomicBusyPruned(t *testing.T) {
	kb := kernel.NewBuilder("atomhot")
	p := kb.BufferParam("p", false)
	gtid := kb.GlobalTID()
	word := kb.And(gtid, kernel.Imm(63)) // 64 distinct contended words
	kb.AtomAddGlobal(kb.AddScaled(p, word, 4), kernel.Imm(1), 4)
	k := kb.MustBuild()

	dev := driver.NewDevice(1)
	buf := dev.Malloc("p", 64*4, false)
	gpu := New(NvidiaConfig(), dev)
	for i := 0; i < 3; i++ {
		l, err := dev.PrepareLaunch(k, 4, 256, []driver.Arg{driver.BufArg(buf)}, driver.ModeOff, nil)
		if err != nil {
			t.Fatalf("prepare %d: %v", i, err)
		}
		if _, err := gpu.Run(l); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if n := len(gpu.atomicBusy); n != 0 {
			t.Fatalf("after launch %d: %d stale atomicBusy entries", i, n)
		}
	}
	if got := dev.ReadUint32(buf, 0); got != 3*4*256/64 {
		t.Fatalf("atomic sum: got %d want %d", got, 3*4*256/64)
	}
}

// TestPlanMatchesOperand locks the equivalence between the shaped operand
// resolution (src) and the per-lane reference interpreter
// (operand/special) for every operand kind, every special register, every
// register shape, and every lane.
func TestPlanMatchesOperand(t *testing.T) {
	cfg := NvidiaConfig()
	g := &GPU{cfg: cfg}
	c := &coreState{id: 0, gpu: g}
	ww := cfg.WarpWidth
	l := &driver.Launch{
		Grid: 7, Block: 96,
		Args:   []uint64{0xDEAD_BEEF, 42},
		Kernel: &kernel.Kernel{NumRegs: 4},
	}
	wg := &workgroup{run: &kernelRun{launch: l}, id: 3}
	w := &warp{wg: wg, inWG: 2, ww: ww, live: 1<<uint(ww) - 1, shapes: true}
	w.rows = make([]int64, 4*ww)
	w.shape = []regShape{{vector: true}, {vector: true}, {base: -7, slope: 3}, {base: 1 << 40}}
	want := func(r, lane int) int64 {
		switch r {
		case 2:
			return -7 + 3*int64(lane)
		case 3:
			return 1 << 40
		}
		return int64(lane*100 + r)
	}
	for r := 0; r < 2; r++ {
		for lane := 0; lane < ww; lane++ {
			w.row(r)[lane] = want(r, lane)
		}
	}

	ops := []kernel.Operand{
		{}, // OperandNone
		kernel.Reg(0), kernel.Reg(1), kernel.Reg(2), kernel.Reg(3),
		kernel.Imm(-17), kernel.Imm(1 << 40),
		{Kind: kernel.OperandParam, Param: 0},
		{Kind: kernel.OperandParam, Param: 1},
	}
	for s := kernel.SpecTIDX; s <= kernel.SpecGlobalSize+1; s++ {
		ops = append(ops, kernel.Spec(s))
	}
	for _, op := range ops {
		v := c.src(w, op)
		for lane := 0; lane < ww; lane++ {
			ref := c.operand(w, op, lane)
			if got := v.at(lane); got != ref {
				t.Fatalf("op %+v lane %d: src=%d operand=%d", op, lane, got, ref)
			}
			if op.Kind == kernel.OperandReg && ref != want(op.Reg, lane) {
				t.Fatalf("r%d lane %d: read %d, want %d", op.Reg, lane, ref, want(op.Reg, lane))
			}
		}
	}
}

// TestWakeTimes exercises the per-core wake times directly.
func TestWakeTimes(t *testing.T) {
	h := newWakeTimes(5)
	if h.min(5) != farFuture {
		t.Fatal("fresh wake times must be idle")
	}
	h.set(3, 100)
	h.set(1, 50)
	h.set(4, 75)
	if got := h.min(5); got != 50 {
		t.Fatalf("min: got %d want 50", got)
	}
	if got := h.min(3); got != 50 {
		t.Fatalf("min of cores 0..2: got %d want 50", got)
	}
	if got := h.min(1); got != farFuture {
		t.Fatalf("min of core 0: got %d want farFuture", got)
	}
	h.earlier(4, 60)  // no-op is fine too, 60 < 75 so it applies
	h.earlier(3, 200) // later than current: must be ignored
	if h.at(3) != 100 {
		t.Fatal("earlier() must never delay a wake")
	}
	h.set(1, farFuture)
	if got := h.min(5); got != 60 {
		t.Fatalf("min after park: got %d want 60", got)
	}
	h.reset()
	if h.min(5) != farFuture {
		t.Fatal("reset must park every core")
	}
}
