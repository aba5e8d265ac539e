package sim

import (
	"fmt"
	"math"
	"math/bits"

	"gpushield/internal/core"
	"gpushield/internal/driver"
	"gpushield/internal/kernel"
	"gpushield/internal/memsys"
)

// memPrep is the core-private half of one global-memory instruction: the
// generated per-lane addresses and the coalesced transaction set. It is a
// pure function of warp registers and the launch, so the parallel scheduler
// computes it in phase A (where it doubles as the abort-hazard evidence)
// while the shared-state half, memCommit, waits for the serial commit.
type memPrep struct {
	addrs  [64]uint64
	offs   [64]int64
	lines  [64]uint64
	nLines int

	minAddr, maxAddr uint64
	minOfs, maxOfs   int64
	ptr              uint64

	// Plan-path metadata (memplan.go): class/wrapped classify the
	// generated address vector, lanes is the dense active-lane list, and
	// memo is the site's check memo. class == memClassRef means the
	// reference generator ran and the rest is unset.
	class   uint8
	wrapped bool
	lanes   []int32
	memo    *core.CheckMemo
}

// execMem executes one warp-level memory instruction: address generation,
// coalescing, bounds checking, translation + cache timing, and the
// functional access against simulated device memory. Serially that is
// memGen followed immediately by memCommit; under the parallel scheduler
// the commit half is deferred into the core's intent and applied in
// ascending core-id order, so the shared-state mutation sequence is
// identical either way.
func (c *coreState) execMem(w *warp, in *kernel.Instr, gmask uint64, now uint64) {
	r := w.wg.run
	st := c.statsFor(r)
	st.MemInstrs++

	if in.Space == kernel.SpaceShared {
		c.execShared(w, in, gmask, now)
		return
	}
	if gmask == 0 {
		w.pc++
		c.wake(w, now+1)
		return
	}
	if p := c.pend; p != nil {
		// Parallel phase A: the addresses were already generated during
		// hazard evaluation in the select phase; everything else touches
		// shared state and runs at commit time.
		p.memPend = true
		return
	}
	// The serial scheduler reuses the core's scratch memPrep: zeroing a
	// fresh ~1.6KB struct per instruction was measurable, and only
	// active-lane entries of the arrays are ever read downstream.
	prep := &c.sPrep
	c.memGen(w, in, gmask, prep)
	c.memCommit(w, in, gmask, now, prep)
}

// memGen runs address generation and coalescing for one global-memory
// instruction into prep: through the warp's lowered memory plan when
// enabled and applicable (memplan.go), through the reference per-lane
// generator otherwise. Both fill prep identically; the planned path
// additionally classifies the access so memCommit can batch. It reads warp
// registers and launch metadata only — no shared or timing state.
func (c *coreState) memGen(w *warp, in *kernel.Instr, gmask uint64, prep *memPrep) {
	prep.class, prep.wrapped = memClassRef, false
	prep.lanes, prep.memo = nil, nil
	if !c.gpu.noMemPlans && c.memGenFast(w, in, gmask, prep) {
		return
	}
	c.memGenRef(w, in, gmask, prep)
}

// memGenRef is the reference address generator and coalescer — the
// semantics memGenFast must reproduce bit-for-bit, kept as the
// GPUSHIELD_NO_MEMPLANS path and for local-space accesses. It reads every
// operand lane by lane through its shape.
func (c *coreState) memGenRef(w *warp, in *kernel.Instr, gmask uint64, prep *memPrep) {
	l := w.wg.run.launch
	ww := c.gpu.cfg.WarpWidth

	// Address generation (AGU). ptr carries the tag of the pointer being
	// dereferenced; offsets are collected for Type-3 checking.
	var (
		addrs   = &prep.addrs
		offs    = &prep.offs
		ptr     uint64
		havePtr bool
	)
	switch {
	case in.Space == kernel.SpaceLocal:
		varIdx := int(in.Src[1].Imm)
		reg := &l.Locals[varIdx]
		ptr = l.LocalPtrs[varIdx]
		havePtr = true
		p0 := c.src(w, in.Src[0])
		for lanes := gmask; lanes != 0; {
			lane := bits.TrailingZeros64(lanes)
			lanes &^= 1 << uint(lane)
			thr := w.wg.id*l.Block + w.inWG*ww + lane
			off := p0.at(lane)
			addrs[lane] = reg.LocalAddr(thr, off)
			offs[lane] = int64(addrs[lane]) - int64(reg.Base)
		}
	case in.Src[0].Kind == kernel.OperandParam:
		// Method C: base from the parameter (uniform), explicit offset.
		base := l.Args[in.Src[0].Param]
		ptr = base
		havePtr = true
		p1 := c.src(w, in.Src[1])
		for lanes := gmask; lanes != 0; {
			lane := bits.TrailingZeros64(lanes)
			lanes &^= 1 << uint(lane)
			off := p1.at(lane)
			addrs[lane] = core.Addr(base) + uint64(off)
			offs[lane] = off
		}
	default:
		// Method B: the register holds a full (possibly tagged) address.
		p0 := c.src(w, in.Src[0])
		p1 := c.src(w, in.Src[1])
		hasOff := in.Src[1].Kind != kernel.OperandNone
		for lanes := gmask; lanes != 0; {
			lane := bits.TrailingZeros64(lanes)
			lanes &^= 1 << uint(lane)
			v := uint64(p0.at(lane))
			if hasOff {
				v += uint64(p1.at(lane))
			}
			if !havePtr {
				ptr, havePtr = v, true
			}
			addrs[lane] = core.Addr(v)
			offs[lane] = 0
		}
	}

	// Address range gathering and coalescing (ACU): warp min/max byte
	// range plus unique cache-line transactions.
	minAddr, maxAddr := ^uint64(0), uint64(0)
	minOfs, maxOfs := int64(math.MaxInt64), int64(math.MinInt64)
	bytes := uint64(in.Bytes)
	for lanes := gmask; lanes != 0; {
		lane := bits.TrailingZeros64(lanes)
		lanes &^= 1 << uint(lane)
		a := addrs[lane]
		if a < minAddr {
			minAddr = a
		}
		if a+bytes-1 > maxAddr {
			maxAddr = a + bytes - 1
		}
		if offs[lane] < minOfs {
			minOfs = offs[lane]
		}
		if offs[lane]+int64(bytes)-1 > maxOfs {
			maxOfs = offs[lane] + int64(bytes) - 1
		}
	}
	prep.nLines = c.coalesceRef(l, gmask, prep, bytes)
	prep.minAddr, prep.maxAddr = minAddr, maxAddr
	prep.minOfs, prep.maxOfs = minOfs, maxOfs
	prep.ptr = ptr
}

// anyUnmapped reports whether any guarded lane's generated address falls on
// an unmapped page — the parallel scheduler's page-fault hazard evidence.
// It is deliberately conservative: GPUShield may squash the access before
// the fault is observed, but such a cycle simply falls back to the serial
// scheduler, which sequences (or suppresses) the abort exactly.
func (c *coreState) anyUnmapped(gmask uint64, prep *memPrep) bool {
	if c.rangeMapped(prep) {
		return false
	}
	for lanes := gmask; lanes != 0; {
		lane := bits.TrailingZeros64(lanes)
		lanes &^= 1 << uint(lane)
		if !c.gpu.dev.Mapped(prep.addrs[lane]) {
			return true
		}
	}
	return false
}

// memCommit applies the shared-state half of one global-memory instruction
// whose addresses were generated by memGen: TLB/cache/DRAM timing, fault
// injection, the bounds check (including RBT fetches through the L2), the
// page-fault abort, the page census, the functional access, and atomic-unit
// serialization. Under the parallel scheduler it runs in the serial commit
// phase in ascending core-id order; serially it runs inline, so both paths
// mutate the L2/L2TLB/DRAM/atomicBusy/backing-store state in the same order
// and the golden statistics are byte-identical.
func (c *coreState) memCommit(w *warp, in *kernel.Instr, gmask uint64, now uint64, prep *memPrep) {
	r := w.wg.run
	st := r.stats
	l := r.launch
	addrs := &prep.addrs
	lines := &prep.lines
	nLines := prep.nLines
	minAddr := prep.minAddr

	// Timing: each transaction walks the TLB + cache hierarchy.
	var maxLat uint64
	allHit := true
	for i := 0; i < nLines; i++ {
		lat, hit := c.gpu.memAccess(c, st, lines[i])
		if lat > maxLat {
			maxLat = lat
		}
		if !hit {
			allHit = false
		}
	}
	st.Transactions += uint64(nLines)

	// Fault injection: the campaign engine may drop this instruction's
	// transactions (silent data loss — stores vanish, loads return zeros)
	// or duplicate them (the transactions replay; timing disturbance only).
	var txDropped bool
	if c.gpu.txFault != nil {
		switch v := c.gpu.txFault(now, minAddr, in.Op.IsStore()); {
		case v.Drop:
			txDropped = true
			st.DroppedTx += uint64(nLines)
		case v.Dup:
			st.DupTx += uint64(nLines)
			for i := 0; i < nLines; i++ {
				if lat, _ := c.gpu.memAccess(c, st, lines[i]); lat > maxLat {
					maxLat = lat
				}
			}
			st.Transactions += uint64(nLines)
		}
	}

	// Bounds checking (BCU).
	var (
		squash, drop bool
		stall        int
		extra        uint64
	)
	protect := c.gpu.cfg.EnableBCU && l.Mode != driver.ModeOff
	if protect && l.SkipCheck[w.pc] {
		st.Skipped++
	} else if protect {
		out := c.checkTransaction(w, in, gmask, prep, nLines == 1, allHit, st, l)
		squash, drop, stall, extra = out.squash, out.drop, out.stall, out.extra
		if out.fault != nil && c.gpu.cfg.BCU.Mode == core.FailFault {
			c.gpu.abortRun(r, fmt.Sprintf("GPUShield fault: %s", out.fault))
			return
		}
	}

	// A dropped transaction never reaches memory: loads return zeros, stores
	// are discarded, and no page fault can be observed for it.
	if txDropped {
		squash, drop = true, true
	}

	// Page-fault check: an access to an unmapped page aborts the kernel
	// (the Fig. 4 case-3 behaviour) unless GPUShield already suppressed the
	// access. A plan-classified wrap-free transaction clears the whole warp
	// with one mapped-range sweep; the per-lane walk remains the fallback
	// (and, on a fault, the exact first-offender reporter — a failed sweep
	// always reaches it, so the abort address and message are identical).
	if !squash && !drop && !c.rangeMapped(prep) {
		for lanes := gmask; lanes != 0; {
			lane := bits.TrailingZeros64(lanes)
			lanes &^= 1 << uint(lane)
			if !c.gpu.dev.Mapped(addrs[lane]) {
				c.gpu.abortRun(r, fmt.Sprintf("illegal memory access at %#x (pc @%d)", addrs[lane], w.pc))
				return
			}
		}
	}

	// Page-touch census (Fig. 11).
	if r.pages != nil {
		for lanes := gmask; lanes != 0; {
			lane := bits.TrailingZeros64(lanes)
			lanes &^= 1 << uint(lane)
			a := addrs[lane]
			for j, b := range l.ArgBuffers {
				if b != nil && a >= b.Base && a < b.Base+b.Padded {
					r.pages[j][a/driver.PageBytes] = struct{}{}
					break
				}
			}
		}
	}

	// Functional access. A uniform load reads once and a uniform store
	// writes once; dense unit-stride transactions inside one backing chunk
	// go through the bulk span path; everything else takes the per-lane
	// reference path. Source operands are resolved before the destination
	// row is claimed, as a store or atomic may read the register a load or
	// atomic then writes.
	mem := c.gpu.dev.Mem
	switch in.Op {
	case kernel.OpLd:
		if in.Dst < 0 { // a discard-destination load still paid its timing above
			break
		}
		switch {
		case squash:
			w.setAffine(in.Dst, 0, 0, gmask)
		case prep.class == memClassUniform:
			w.setAffine(in.Dst, loadValue(mem, addrs[prep.lanes[0]], in), 0, gmask)
		case prep.class == memClassUnit && !prep.wrapped && c.batchLoad(w, in, gmask, prep):
		default:
			row := w.dstRow(in.Dst, gmask)
			for lanes := gmask; lanes != 0; lanes &= lanes - 1 {
				lane := bits.TrailingZeros64(lanes)
				row[lane] = loadValue(mem, addrs[lane], in)
			}
		}
	case kernel.OpSt:
		if drop {
			break
		}
		p2 := c.src(w, in.Src[2])
		switch {
		case prep.class == memClassUniform:
			// Every active lane writes the same bytes in ascending lane
			// order, so memory keeps the last active lane's value.
			last := int(prep.lanes[len(prep.lanes)-1])
			storeValue(mem, addrs[last], in, p2.at(last))
		case prep.class == memClassUnit && !prep.wrapped && c.batchStore(in, prep, &p2):
		default:
			for lanes := gmask; lanes != 0; lanes &= lanes - 1 {
				lane := bits.TrailingZeros64(lanes)
				storeValue(mem, addrs[lane], in, p2.at(lane))
			}
		}
	case kernel.OpAtomAdd:
		p2 := c.src(w, in.Src[2])
		var row []int64
		if in.Dst >= 0 {
			row = w.dstRow(in.Dst, gmask)
		}
		for lanes := gmask; lanes != 0; lanes &= lanes - 1 {
			lane := bits.TrailingZeros64(lanes)
			var old int64
			if !squash && !drop {
				old = loadValue(mem, addrs[lane], in)
				storeValue(mem, addrs[lane], in, old+p2.at(lane))
			}
			if row != nil {
				row[lane] = old
			}
		}
	}

	// Atomic operations serialize per address in the atomic units: each
	// lane's op waits for the previous op on the same word, across the
	// whole GPU. This is what makes device malloc's shared heap-top
	// pointer a scalability cliff (§5.2.1).
	if in.Op == kernel.OpAtomAdd {
		const atomCycles = 2
		done := now + maxLat
		for lanes := gmask; lanes != 0; {
			lane := bits.TrailingZeros64(lanes)
			lanes &^= 1 << uint(lane)
			word := addrs[lane] &^ 3
			start := now + maxLat
			if b := c.gpu.atomicBusy[word]; b > start {
				start = b
			}
			end := start + atomCycles
			c.gpu.atomicBusy[word] = end
			if end > done {
				done = end
			}
		}
		maxLat = done - now
	}

	// LSU occupancy: one cycle per transaction plus any BCU bubble; the
	// warp itself stalls until its data returns (a bubble delays the data
	// by the same amount).
	busy := now + uint64(nLines) + uint64(stall)
	if busy > c.lsuFreeAt {
		c.lsuFreeAt = busy
	}
	c.wake(w, now+maxLat+extra+uint64(stall))
	w.pc++
}

// checkOutcome is the protection verdict for one coalesced transaction.
type checkOutcome struct {
	squash bool // loads must return zero
	drop   bool // stores must be discarded
	stall  int
	extra  uint64
	fault  *core.Violation // first violation, for FailFault aborts
}

// checkTransaction is the single seam between the LSU and the protection
// mechanism: one call per warp-level memory instruction, after address
// generation and coalescing, carrying the transaction's pointer tag, byte
// range, and LSU visibility context (transaction count, L1D hit). All
// violation accounting, RCache service-level counters, and stall folding
// live here; a future ProtectionBackend interface (ROADMAP item 1) slots
// in at this boundary without the LSU knowing which mechanism is wired.
func (c *coreState) checkTransaction(w *warp, in *kernel.Instr, gmask uint64, prep *memPrep, singleTx, allHit bool, st *LaunchStats, l *driver.Launch) checkOutcome {
	var out checkOutcome
	tally := func(res core.CheckResult) {
		if !res.OK && out.fault == nil {
			out.fault = res.Violation
		}
		if !res.OK && l.Mailbox != nil {
			c.postViolation(l, res.Violation)
		}
		switch res.Level {
		case core.ServedL1:
			st.Checks++
			st.RL1Hits++
		case core.ServedL2:
			st.Checks++
			st.RL2Hits++
		case core.ServedRBT:
			st.Checks++
			st.RBTFetches++
		case core.ServedType3:
			st.Type3Checks++
		case core.ServedSkip:
			st.Skipped++
		}
		out.stall += res.Stall
		if res.ExtraLatency > out.extra {
			out.extra = res.ExtraLatency
		}
		st.BCUStalls += uint64(res.Stall)
		out.squash = out.squash || res.SquashLoad
		out.drop = out.drop || res.DropStore
	}
	req := core.CheckRequest{
		KernelID:          l.KernelID,
		Pointer:           prep.ptr,
		MinAddr:           prep.minAddr,
		MaxAddr:           prep.maxAddr,
		MinOfs:            prep.minOfs,
		MaxOfs:            prep.maxOfs,
		IsStore:           in.Op.IsStore(),
		PC:                w.pc,
		SingleTransaction: singleTx,
		L1DHit:            allHit,
	}
	if c.gpu.cfg.BCU.PerThread {
		// Ablation: one check per active lane instead of one per warp
		// instruction — the cost the address-gathering unit avoids.
		// The BCU retires one check per cycle, so the extra checks
		// occupy it (and hence the LSU slot) for lanes-1 extra cycles.
		bytes := uint64(in.Bytes)
		nchecks := 0
		for lanes := gmask; lanes != 0; {
			lane := bits.TrailingZeros64(lanes)
			lanes &^= 1 << uint(lane)
			lr := req
			lr.MinAddr = prep.addrs[lane]
			lr.MaxAddr = prep.addrs[lane] + bytes - 1
			lr.MinOfs = prep.offs[lane]
			lr.MaxOfs = prep.offs[lane] + int64(bytes) - 1
			tally(c.bcu.Check(lr))
			nchecks++
		}
		if nchecks > 1 {
			out.stall += nchecks - 1
			st.BCUStalls += uint64(nchecks - 1)
		}
	} else if prep.memo != nil {
		tally(c.bcu.CheckWarm(req, prep.memo))
	} else {
		tally(c.bcu.Check(req))
	}
	return out
}

// execShared handles on-chip scratchpad accesses: fixed latency, no
// LSU/BCU involvement.
func (c *coreState) execShared(w *warp, in *kernel.Instr, gmask uint64, now uint64) {
	st := c.statsFor(w.wg.run)
	sh := w.wg.shared
	p0 := c.src(w, in.Src[0])
	p2 := c.src(w, in.Src[2])
	var row []int64
	if in.Op == kernel.OpLd && in.Dst >= 0 {
		row = w.dstRow(in.Dst, gmask)
	}
	for lanes := gmask; lanes != 0; lanes &= lanes - 1 {
		lane := bits.TrailingZeros64(lanes)
		st.SharedAccs++
		if len(sh) == 0 {
			if row != nil {
				row[lane] = 0
			}
			continue
		}
		addr := int(uint64(p0.at(lane)) % uint64(len(sh)))
		end := addr + in.Bytes
		if end > len(sh) {
			addr = len(sh) - in.Bytes
			end = len(sh)
		}
		switch in.Op {
		case kernel.OpLd:
			if row == nil {
				continue
			}
			var raw uint64
			for i := addr; i < end; i++ {
				raw |= uint64(sh[i]) << (8 * uint(i-addr))
			}
			row[lane] = widen(raw, in)
		case kernel.OpSt:
			raw := narrow(p2.at(lane), in)
			for i := addr; i < end; i++ {
				sh[i] = byte(raw >> (8 * uint(i-addr)))
			}
		}
	}
	w.pc++
	c.wake(w, now+uint64(c.gpu.cfg.SharedLatency))
}

// loadValue reads one element, applying the IR's width and type rules:
// 4-byte integer loads sign-extend, 1/2-byte loads zero-extend, f32 loads
// widen to float64 bits. It takes the concrete backing store (not an
// interface) so the per-lane hot path is a direct, inlinable call.
func loadValue(mem *memsys.Backing, addr uint64, in *kernel.Instr) int64 {
	raw := mem.ReadUint(addr, in.Bytes)
	return widen(raw, in)
}

func widen(raw uint64, in *kernel.Instr) int64 {
	if in.F32 && in.Bytes == 4 {
		return kernel.F2B(float64(math.Float32frombits(uint32(raw))))
	}
	switch in.Bytes {
	case 8:
		return int64(raw)
	case 4:
		return int64(int32(uint32(raw)))
	default:
		return int64(raw)
	}
}

// storeValue writes one element, narrowing per the IR rules.
func storeValue(mem *memsys.Backing, addr uint64, in *kernel.Instr, v int64) {
	mem.WriteUint(addr, narrow(v, in), in.Bytes)
}

func narrow(v int64, in *kernel.Instr) uint64 {
	if in.F32 && in.Bytes == 4 {
		return uint64(math.Float32bits(float32(kernel.B2F(v))))
	}
	return uint64(v)
}

// postViolation appends a violation record to the launch's SVM mailbox
// (§5.5.2), so the host can see errors while the kernel is still running.
// Word 0 counts records; each record is {kind, pc, addr lo32, addr hi32}.
func (c *coreState) postViolation(l *driver.Launch, v *core.Violation) {
	mem := c.gpu.dev.Mem
	box := l.Mailbox
	count := mem.ReadUint32(box.Base)
	rec := box.Base + 4 + uint64(count)*16
	if rec+16 > box.Base+box.Size {
		return // mailbox full; the end-of-kernel log still has everything
	}
	mem.WriteUint32(rec, uint32(v.Kind))
	mem.WriteUint32(rec+4, uint32(v.PC))
	mem.WriteUint32(rec+8, uint32(v.MinAddr))
	mem.WriteUint32(rec+12, uint32(v.MinAddr>>32))
	mem.WriteUint32(box.Base, count+1)
}

// abortRun terminates a kernel run after a fault: all of its resident
// workgroups are torn down across every core.
func (g *GPU) abortRun(r *kernelRun, msg string) {
	if r.aborted {
		return
	}
	r.aborted = true
	r.stats.Aborted = true
	r.stats.AbortMsg = msg
	for _, c := range g.cores {
		torn := false
		for _, wg := range append([]*workgroup(nil), c.wgs...) {
			if wg.run != r {
				continue
			}
			for _, w := range wg.warps {
				w.done = true
			}
			wg.live = 0
			c.removeWorkgroup(wg)
			torn = true
		}
		if torn {
			// The stored wake time may reference warps that no longer
			// exist. Forcing a visit now makes the next tryIssue scan
			// recompute it from the surviving warps, keeping nextEvent
			// exact (and hence the visited-cycle sequence unchanged).
			g.wakes.set(c.id, g.now)
		}
	}
	r.liveWGs = 0
}
