package sim

import (
	"math/bits"

	"gpushield/internal/core"
	"gpushield/internal/kernel"
	"gpushield/internal/memsys"
)

// stackEntry is one SIMT reconvergence-stack record. A divergent branch
// pushes the reconvergence state and the not-taken path; reaching the
// reconvergence PC pops the next entry (the standard TOS scheme).
type stackEntry struct {
	reconvPC int
	pc       int
	mask     uint64
}

// warp is one resident sub-workgroup context.
type warp struct {
	wg     *workgroup
	inWG   int // warp index within the workgroup
	slot   int // index in the owning core's warps / sched arrays
	pc     int
	active uint64         // live, non-exited lanes currently enabled
	exited uint64         // lanes retired via exit
	live   uint64         // lanes whose registers can still be read: placed lanes not yet exited
	code   []kernel.Instr // the kernel's instruction stream (fetch shortcut)
	stack  []stackEntry

	// Register file (shape.go): rows is register-major, register r's row
	// is rows[r*ww : (r+1)*ww], and shape[r] says whether that row or an
	// affine tag holds the register's value. shapes is false on the
	// reference path, where every register stays vector-shaped.
	ww     int
	rows   []int64
	shape  []regShape
	shapes bool

	atBarrier bool
	done      bool

	// sbLeft counts superblock instructions whose functional effects were
	// applied ahead of schedule and whose issues are still owed: while > 0,
	// each selection of this warp is a replay issue (see superblock.go).
	sbLeft int

	// Dense active-lane cache shared by every memory pc: the lane indices
	// of memMask and their common spacing memGap (laneList), rebuilt only
	// when the guard mask diverges from it. memMask = 0 (placeWorkgroup)
	// forces a rebuild — a memory instruction with no active lanes never
	// reaches address generation.
	memMask  uint64
	memLanes []int32
	memGap   int32
}

// workgroup is one resident thread block.
type workgroup struct {
	run     *kernelRun
	id      int
	warps   []*warp
	shared  []byte
	arrived int // warps waiting at the barrier
	live    int // warps not yet done
}

// coreState is one shader core (SM): warp contexts, private L1D and L1 TLB,
// the LSU occupancy clock, and the bounds-checking unit.
type coreState struct {
	id    int
	gpu   *GPU
	l1d   *memsys.Cache
	l1tlb *memsys.TLB
	bcu   *core.BCU

	wgs   []*workgroup
	warps []*warp
	// sched is the scheduler's struct-of-arrays view of warp issue state,
	// parallel to warps: sched[i] is warp i's next possible issue cycle,
	// with done and at-barrier folded in as farFuture. selectWarp scans
	// only this array (one cache line per eight warps) instead of chasing
	// every warp struct; every change to a warp's issue cycle, done or
	// atBarrier keeps it in sync (see wake).
	sched []uint64
	// wgPool is the core's workgroup arena: retired shells (warp structs,
	// register slabs, shared-memory backing) recycled by placeWorkgroup.
	// Per-core ownership keeps the parallel scheduler race-free; capacity
	// is bounded by MaxWGsPerCore.
	wgPool      []*workgroup
	threadsUsed int
	lsuFreeAt   uint64
	lastWarp    int // greedy-then-oldest cursor
	rrRun       int // round-robin kernel cursor for dispatch

	// intent is the core's phase-A scratch under the parallel scheduler:
	// the chosen instruction plus every shared-state effect it deferred.
	// pend points at intent only while the core-private half of an
	// instruction executes in phase A; helpers that would otherwise touch
	// shared state (run stats, liveWGs, dispatchNeeded, the wake times)
	// consult it and record into the intent instead. It is nil during
	// serial execution and during the commit phase, so those paths mutate
	// shared state directly, exactly as the serial scheduler always has.
	intent coreIntent
	pend   *coreIntent

	// rowScratch holds the shaped ALU executor's broadcast operand rows and
	// its partial-write result row (shape.go).
	rowScratch [4][64]int64

	// memos is the core's check-memo table, one slot per global-memory
	// site of the running kernels (kernelTable.sites): the (kernel, pointer
	// tag) → buffer ID decryption memo core.CheckWarm consults. A slot
	// shared by two kernels' sites only misses; every use revalidates.
	memos []core.CheckMemo

	// sPrep is the serial scheduler's memory-instruction scratch: execMem
	// reuses it instead of zeroing a fresh ~1.6KB memPrep per instruction.
	// Safe because memGen overwrites every field a commit reads (only
	// active-lane entries of the big arrays are ever consumed), and the
	// serial path never has two instructions in flight on one core.
	sPrep memPrep
}

// reset writes the core's initial run state. Resident workgroups (left
// behind only by a run that panicked) are dropped and the check memos
// emptied; the arena and the ALU and memory-instruction scratch are kept,
// as their contents are dead between runs.
func (c *coreState) reset() {
	clear(c.memos)
	c.memos = c.memos[:0]
	c.wgs = c.wgs[:0]
	c.warps = c.warps[:0]
	c.sched = c.sched[:0]
	c.threadsUsed = 0
	c.lsuFreeAt = 0
	c.lastWarp = 0
	c.rrRun = 0
	c.intent = coreIntent{}
}

// statsFor returns the LaunchStats sink for counters incremented during the
// core-private half of an instruction: the run's stats in serial execution,
// or the core's intent scratch during parallel phase A (the commit phase
// folds the scratch into the run in ascending core-id order, so totals are
// byte-identical to serial accumulation).
func (c *coreState) statsFor(r *kernelRun) *LaunchStats {
	if c.pend != nil {
		return &c.pend.stats
	}
	return r.stats
}

// placeWorkgroup instantiates workgroup wgID of run r on this core, reusing
// a recycled workgroup shell (warp structs, register slabs, shared-memory
// backing) from the core's arena when one with the right warp count is
// available. Recycled register files and shared memory are zeroed before
// reuse: a fresh workgroup must observe exactly the all-zero state a newly
// allocated one would — both for equivalence with the allocating path and so
// one tenant's register or scratchpad contents can never leak into another
// tenant's launch on a shared GPU (the service layer runs many tenants over
// one simulator). Registers are zeroed by tagging every one uniform 0; the
// reference path, which tracks no shapes, clears the rows instead.
func (c *coreState) placeWorkgroup(r *kernelRun, wgID int, now uint64) {
	l := r.launch
	ww := c.gpu.cfg.WarpWidth
	nw := (l.Block + ww - 1) / ww
	nregs := l.Kernel.NumRegs
	var wg *workgroup
	for i := len(c.wgPool) - 1; i >= 0; i-- {
		if len(c.wgPool[i].warps) == nw {
			wg = c.wgPool[i]
			c.wgPool = append(c.wgPool[:i], c.wgPool[i+1:]...)
			break
		}
	}
	if wg == nil {
		wg = &workgroup{warps: make([]*warp, 0, nw)}
		for wi := 0; wi < nw; wi++ {
			wg.warps = append(wg.warps, &warp{})
		}
	}
	wg.run, wg.id, wg.live, wg.arrived = r, wgID, nw, 0
	if sb := l.Kernel.SharedBytes; sb > 0 {
		if cap(wg.shared) >= sb {
			wg.shared = wg.shared[:sb]
			clear(wg.shared)
		} else {
			wg.shared = make([]byte, sb)
		}
	} else {
		wg.shared = wg.shared[:0]
	}
	for wi, w := range wg.warps {
		var mask uint64
		for lane := 0; lane < ww; lane++ {
			if wi*ww+lane < l.Block {
				mask |= 1 << uint(lane)
			}
		}
		w.wg, w.inWG, w.pc, w.active, w.exited = wg, wi, 0, mask, 0
		w.code = l.Kernel.Code
		w.stack = w.stack[:0]
		w.atBarrier, w.done = false, false
		w.live = mask
		w.sbLeft, w.memMask = 0, 0
		w.ww, w.shapes = ww, !c.gpu.noSuperblocks
		if n := ww * nregs; cap(w.rows) >= n {
			w.rows = w.rows[:n]
		} else {
			w.rows = make([]int64, n)
		}
		if cap(w.shape) >= nregs {
			w.shape = w.shape[:nregs]
		} else {
			w.shape = make([]regShape, nregs)
		}
		if w.shapes {
			clear(w.shape)
		} else {
			clear(w.rows)
			for i := range w.shape {
				w.shape[i] = regShape{vector: true}
			}
		}
		w.slot = len(c.warps)
		c.warps = append(c.warps, w)
		c.sched = append(c.sched, now)
	}
	if n := r.tab.nSites; len(c.memos) < n {
		c.memos = append(c.memos, make([]core.CheckMemo, n-len(c.memos))...)
	}
	c.wgs = append(c.wgs, wg)
	c.threadsUsed += l.Block
	// Fresh warps are ready immediately: wake the core, and bring it under
	// the occupied mark so the scheduler visits it.
	c.gpu.wakes.earlier(c.id, now)
	c.gpu.occupied = max(c.gpu.occupied, c.id+1)
}

// removeWorkgroup frees a completed (or aborted) workgroup's resources and
// parks the shell in the core's arena for reuse. The arena is per-core so a
// phase-A retire under the parallel scheduler never races another core's
// placement or retire, and it is capacity-bounded by the core's concurrent-
// workgroup limit (a core can never have retired more shells than it can
// host). The run pointer is dropped so a pooled shell does not keep a
// finished launch alive.
func (c *coreState) removeWorkgroup(wg *workgroup) {
	for i, x := range c.wgs {
		if x == wg {
			c.wgs = append(c.wgs[:i], c.wgs[i+1:]...)
			break
		}
	}
	kept := c.warps[:0]
	sched := c.sched[:0]
	for i, w := range c.warps {
		if w.wg != wg {
			w.slot = len(kept)
			kept = append(kept, w)
			sched = append(sched, c.sched[i])
		}
	}
	c.warps, c.sched = kept, sched
	c.threadsUsed -= wg.run.launch.Block
	if c.lastWarp >= len(c.warps) {
		c.lastWarp = 0
	}
	if len(c.wgPool) < c.gpu.cfg.MaxWGsPerCore {
		wg.run = nil
		c.wgPool = append(c.wgPool, wg)
	}
	// Freed capacity may admit a pending workgroup; run dispatch this step.
	// Under the parallel scheduler the flag is GPU-global shared state, so a
	// phase-A retire defers it to the commit.
	if c.pend != nil {
		c.pend.dispatch = true
	} else {
		c.gpu.dispatchNeeded = true
	}
}

// issuePick is the outcome of one scheduler scan: the chosen warp (w == nil
// when nothing can issue this cycle) and the wake bookkeeping the scan
// computed for free — the earliest future issue cycle, or lsuFreeAt for a ready
// warp stalled behind the LSU.
type issuePick struct {
	idx  int
	w    *warp
	in   *kernel.Instr
	next uint64
}

// selectWarp scans for the next instruction to issue without committing to
// it, greedy-then-oldest: the warp issued last keeps priority while it is
// ready, which preserves the RCache temporal locality the paper relies on.
//
// The scan's only mutation is reconvergence-stack normalization, which is
// idempotent — re-running the scan from the same cycle picks the same warp.
// The parallel scheduler's hazard fallback (re-execute the whole cycle on
// the serial path) depends on exactly that property.
func (c *coreState) selectWarp(now uint64) issuePick {
	n := len(c.warps)
	pick := issuePick{idx: -1, next: farFuture}
	sched := c.sched
	idx := c.lastWarp
	for k := 0; k < n; k++ {
		if r := sched[idx]; r > now {
			// Not ready: done and at-barrier warps carry farFuture here and
			// so never advance pick.next.
			if r < pick.next {
				pick.next = r
			}
		} else {
			w := c.warps[idx]
			in := &w.code[w.reconverge()]
			if in.Op.IsMemory() && in.Space != kernel.SpaceShared && c.lsuFreeAt > now {
				if c.lsuFreeAt < pick.next {
					pick.next = c.lsuFreeAt
				}
			} else {
				pick.idx, pick.w, pick.in = idx, w, in
				return pick
			}
		}
		if idx++; idx == n {
			idx = 0
		}
	}
	return pick
}

// wake records the warp's next possible issue cycle in the scheduler's scan
// array. Transitions of done/atBarrier maintain the array directly
// (farFuture while blocked).
func (c *coreState) wake(w *warp, t uint64) {
	c.sched[w.slot] = t
}

// tryIssue issues at most one instruction on this core at cycle now.
//
// It also maintains the core's wake time. On an issue the core may issue
// again next cycle, so the wake moves to now+1. On a failed scan the pass
// has already seen every warp, so the exact next opportunity is recorded
// for free; until then the scheduler never looks at this core.
func (c *coreState) tryIssue(now uint64) bool {
	p := c.selectWarp(now)
	if p.w == nil {
		c.gpu.wakes.set(c.id, p.next)
		return false
	}
	c.lastWarp = p.idx
	c.execute(p.w, p.in, now)
	c.gpu.wakes.set(c.id, now+1)
	return true
}

// reconverge pops reconvergence-stack entries whose point the warp reached
// and returns the (possibly updated) PC.
func (w *warp) reconverge() int {
	for len(w.stack) > 0 {
		top := w.stack[len(w.stack)-1]
		if w.pc != top.reconvPC {
			break
		}
		w.stack = w.stack[:len(w.stack)-1]
		w.pc = top.pc
		w.active = top.mask &^ w.exited
	}
	return w.pc
}

// guardMask returns the lanes that execute the instruction: active lanes
// whose guard register (if any) passes. A uniform guard resolves in O(1).
func (w *warp) guardMask(in *kernel.Instr) uint64 {
	if in.Pred < 0 {
		return w.active
	}
	if s := &w.shape[in.Pred]; !s.vector && s.slope == 0 {
		if (s.base != 0) != in.PNeg {
			return w.active
		}
		return 0
	}
	var m uint64
	for lanes := w.active; lanes != 0; lanes &= lanes - 1 {
		lane := bits.TrailingZeros64(lanes)
		if (w.at(in.Pred, lane) != 0) != in.PNeg {
			m |= 1 << uint(lane)
		}
	}
	return m
}

// execute runs one warp instruction: functional semantics plus timing.
func (c *coreState) execute(w *warp, in *kernel.Instr, now uint64) {
	if w.sbLeft > 0 {
		// Replay issue of a pre-executed superblock instruction: timing and
		// stats only, the arithmetic already happened at block entry.
		c.replayIssue(w, in, now)
		return
	}
	r := w.wg.run
	st := c.statsFor(r)
	gmask := w.guardMask(in)
	st.WarpInstrs++
	st.ThreadInstrs += uint64(bits.OnesCount64(gmask))

	switch {
	case in.Op.IsMemory():
		c.execMem(w, in, gmask, now)
		return

	case in.Op == kernel.OpBar:
		w.pc++
		w.atBarrier = true
		c.sched[w.slot] = farFuture
		w.wg.arrived++
		c.releaseBarrier(w.wg, now)
		return

	case in.Op == kernel.OpExit:
		w.exited |= gmask
		w.active &^= gmask
		w.live &^= gmask
		w.pc++
		if w.active == 0 {
			// Resume any outstanding paths; otherwise the warp retires.
			for len(w.stack) > 0 && w.active == 0 {
				top := w.stack[len(w.stack)-1]
				w.stack = w.stack[:len(w.stack)-1]
				w.pc = top.pc
				w.active = top.mask &^ w.exited
			}
			if w.active == 0 {
				c.retireWarp(w, now)
				return
			}
		}
		c.wake(w, now+1)
		return

	case in.Op.IsBranch():
		c.execBranch(w, in, gmask, now)
		return
	}

	// ALU path. An unpredicated ALU instruction that begins a pre-decoded
	// superblock executes the whole block's arithmetic now; this issue then
	// completes normally and the rest of the block replays (superblock.go).
	// Other ALU instructions take the shaped executor alone, or, on the
	// reference path (no superblock table), the per-lane one.
	switch lens := r.tab.lens; {
	case lens == nil:
		c.execALULanes(w, in, gmask)
	case lens[w.pc] > 0:
		c.execSuperblock(w, int(lens[w.pc]))
	default:
		c.execALU(w, in, gmask)
	}
	w.pc++
	c.wake(w, now+uint64(c.gpu.aluLat[in.Op]))
}

// retireWarp marks the warp done and completes its workgroup when it was
// the last one.
func (c *coreState) retireWarp(w *warp, now uint64) {
	if w.done {
		return
	}
	w.done = true
	c.sched[w.slot] = farFuture
	wg := w.wg
	wg.live--
	c.releaseBarrier(wg, now)
	if wg.live == 0 {
		// Capture the run first: removeWorkgroup may park the shell in the
		// arena, which drops its run pointer.
		run := wg.run
		c.removeWorkgroup(wg)
		// The live-workgroup count is owned by the run (shared across
		// cores); a phase-A retire defers the decrement to the commit.
		if c.pend != nil {
			c.pend.retired = run
		} else {
			run.liveWGs--
		}
	}
}

// releaseBarrier opens the workgroup barrier once every live warp arrived.
func (c *coreState) releaseBarrier(wg *workgroup, now uint64) {
	if wg.live == 0 || wg.arrived < wg.live {
		return
	}
	wg.arrived = 0
	for _, w := range wg.warps {
		if !w.done && w.atBarrier {
			w.atBarrier = false
			c.wake(w, now+1)
		}
	}
	// Released warps are ready next cycle; wake the core for them. A
	// release can only happen inside an issuing execute, whose caller
	// (tryIssue serially, the commit phase in parallel) re-arms the core at
	// now+1 unconditionally — so in phase A, where the wake times are
	// shared, the call is simply skipped rather than deferred.
	if c.pend == nil {
		c.gpu.wakes.earlier(c.id, now+1)
	}
}

func (c *coreState) execBranch(w *warp, in *kernel.Instr, gmask uint64, now uint64) {
	cfg := &c.gpu.cfg
	c.wake(w, now+uint64(cfg.ALULatency))
	switch in.Op {
	case kernel.OpBraUni:
		w.pc = in.Label
	case kernel.OpBraAny:
		if gmask != 0 {
			w.pc = in.Label
		} else {
			w.pc++
		}
	case kernel.OpBraAll:
		if gmask == w.active && w.active != 0 {
			w.pc = in.Label
		} else {
			w.pc++
		}
	case kernel.OpBraDiv:
		taken := gmask
		switch {
		case taken == w.active:
			w.pc = in.Label
		case taken == 0:
			w.pc++
		default:
			// Push reconvergence state, then the fall-through path; execute
			// the taken path first.
			w.stack = append(w.stack,
				stackEntry{reconvPC: in.Reconv, pc: in.Reconv, mask: w.active},
				stackEntry{reconvPC: in.Reconv, pc: w.pc + 1, mask: w.active &^ taken},
			)
			w.active = taken
			w.pc = in.Label
		}
	}
}

// operand evaluates one source operand for a lane: the reference
// resolution the shaped src must agree with.
func (c *coreState) operand(w *warp, op kernel.Operand, lane int) int64 {
	switch op.Kind {
	case kernel.OperandReg:
		return w.at(op.Reg, lane)
	case kernel.OperandImm:
		return op.Imm
	case kernel.OperandParam:
		return int64(w.wg.run.launch.Args[op.Param])
	case kernel.OperandSpecial:
		return c.special(w, op.Special, lane)
	}
	return 0
}

func (c *coreState) special(w *warp, s kernel.Special, lane int) int64 {
	l := w.wg.run.launch
	ww := c.gpu.cfg.WarpWidth
	tid := int64(w.inWG*ww + lane)
	switch s {
	case kernel.SpecTIDX:
		return tid
	case kernel.SpecTIDY, kernel.SpecCTAIDY:
		return 0
	case kernel.SpecCTAIDX:
		return int64(w.wg.id)
	case kernel.SpecNTIDX:
		return int64(l.Block)
	case kernel.SpecNTIDY, kernel.SpecNCTAIDY:
		return 1
	case kernel.SpecNCTAIDX:
		return int64(l.Grid)
	case kernel.SpecLaneID:
		return int64(lane)
	case kernel.SpecWarpID:
		return int64(w.inWG)
	case kernel.SpecGlobalTID:
		return int64(w.wg.id)*int64(l.Block) + tid
	case kernel.SpecGlobalSize:
		return int64(l.Grid) * int64(l.Block)
	}
	return 0
}

// aluLatency maps an opcode to its execution latency class.
func aluLatency(cfg *Config, op kernel.Op) int {
	switch op {
	case kernel.OpMul, kernel.OpMad, kernel.OpFMul, kernel.OpFMad,
		kernel.OpCvtIF, kernel.OpCvtFI, kernel.OpFAdd, kernel.OpFSub:
		return cfg.MulLatency
	case kernel.OpDiv, kernel.OpRem, kernel.OpFDiv, kernel.OpFSqrt:
		return cfg.SFULatency
	default:
		return cfg.ALULatency
	}
}
