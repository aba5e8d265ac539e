package sim

import (
	"sync"

	"gpushield/internal/core"
	"gpushield/internal/driver"
	"gpushield/internal/kernel"
)

// This file is the parallel half of the two-phase deterministic scheduler.
//
// One scheduling step is split into:
//
//   phase A (parallel)  — every core whose wake time has arrived runs its
//     scheduler scan and the core-private half of the chosen instruction
//     (fetch/issue, ALU, divergence, barriers, shared memory, memory
//     address generation) against core-private state only: its warps,
//     register files, L1D, L1 TLB, and BCU bookkeeping. Effects on shared
//     state are recorded in the core's intent instead of applied.
//
//   phase B (serial commit) — the intents are applied on the scheduler
//     goroutine in ascending core-id order, reusing the exact serial code
//     paths for the L2, L2 TLB, DRAM, backing store, RBT fetches, atomic
//     units, violation mailbox, run statistics, and the wake times. The
//     serial scheduler also visits cores in ascending id order, so the
//     shared-state mutation sequence — and therefore every LaunchStats
//     byte — is identical at every worker count.
//
// The one way core j's instruction can change core k's behaviour within the
// same cycle is an abort (a BCU precise fault or a page fault tears down
// the run's workgroups on every core mid-cycle). Phase A therefore computes
// a conservative abort hazard during the scan; if any core flags one, the
// whole cycle re-runs on the serial scheduler, which sequences the abort
// exactly. The scan mutates nothing (reconvergence normalization aside,
// which is idempotent), so the fallback is exact, not approximate.

// coreIntent is one core's deferred outcome of a parallel phase-A step.
type coreIntent struct {
	issued bool
	idx    int
	w      *warp
	run    *kernelRun // w's run, captured at select time: a phase-A retire
	// may park w's workgroup shell in the core arena and clear wg.run
	// before the commit reads it.
	in    *kernel.Instr
	gmask uint64
	next  uint64 // failed-scan wake time, valid when !issued

	// memPend marks a global-memory instruction whose shared-state half
	// (memCommit) still has to run; prep holds its generated addresses.
	memPend bool
	prep    memPrep

	// stats collects counter increments from the core-private half; the
	// commit folds them into the run's LaunchStats. Only counters reachable
	// in phase A are ever non-zero: WarpInstrs, ThreadInstrs, MemInstrs,
	// SharedAccs (everything else is counted inside memCommit).
	stats LaunchStats

	retired  *kernelRun // run whose liveWGs must drop (a workgroup completed)
	dispatch bool       // a core slot freed; dispatch must run this step
}

// selectIntent runs one core's phase-A select: the identical scan tryIssue
// performs, plus address generation and abort-hazard evaluation for a
// global-memory pick. It touches no shared state, and no core state the
// serial scan would not, so the caller may still abandon the cycle and
// re-run it serially. Reports whether the chosen instruction might abort a
// kernel this cycle.
func (c *coreState) selectIntent(now uint64) bool {
	it := &c.intent
	it.issued, it.memPend = false, false
	it.retired, it.dispatch = nil, false
	it.stats = LaunchStats{}

	p := c.selectWarp(now)
	it.next = p.next
	if p.w == nil {
		return false
	}
	it.issued = true
	it.idx, it.w, it.in = p.idx, p.w, p.in
	it.run = p.w.wg.run
	it.gmask = p.w.guardMask(p.in)

	if !p.in.Op.IsMemory() || p.in.Space == kernel.SpaceShared || it.gmask == 0 {
		return false
	}
	c.memGen(p.w, p.in, it.gmask, &it.prep)

	// Abort hazards, evaluated conservatively (a superset of the aborts
	// memCommit can raise): any bounds check under precise-fault mode, and
	// any guarded lane on an unmapped page.
	l := p.w.wg.run.launch
	cfg := &c.gpu.cfg
	protect := cfg.EnableBCU && l.Mode != driver.ModeOff
	if protect && !l.SkipCheck[p.w.pc] && cfg.BCU.Mode == core.FailFault {
		return true
	}
	return c.anyUnmapped(it.gmask, &it.prep)
}

// executeIntent runs one core's phase-A execute: the core-private half of
// the instruction chosen by selectIntent, with every shared-state effect
// captured in the intent via c.pend.
func (c *coreState) executeIntent(now uint64) {
	it := &c.intent
	if !it.issued {
		return
	}
	c.lastWarp = it.idx
	c.pend = it
	c.execute(it.w, it.in, now)
	c.pend = nil
}

// Phase selector for the worker group.
const (
	phaseSelect = iota
	phaseExec
)

// coreWorkers is the persistent phase-A worker group of one RunConcurrentCtx
// invocation. Workers are parked on a condition variable between cycles and
// released twice per parallel cycle (select, then execute); cores are
// sharded statically by index so no work-stealing synchronization is needed.
// Every hand-off goes through mu, which is also what publishes phase-A
// writes to the committing scheduler goroutine and vice versa.
type coreWorkers struct {
	n int

	mu      sync.Mutex
	start   *sync.Cond
	done    *sync.Cond
	epoch   uint64
	phase   int
	now     uint64
	cores   []*coreState
	pending int
	hazard  bool
	quit    bool

	awake []*coreState // per-cycle due-core scratch, reused
}

func newCoreWorkers(g *GPU, width int) *coreWorkers {
	cw := &coreWorkers{n: width, awake: make([]*coreState, 0, len(g.cores))}
	cw.start = sync.NewCond(&cw.mu)
	cw.done = sync.NewCond(&cw.mu)
	for i := 0; i < width; i++ {
		go cw.worker(i)
	}
	return cw
}

// stop releases every worker goroutine. The group must be idle (no phase in
// flight), which is always true between scheduling steps.
func (cw *coreWorkers) stop() {
	cw.mu.Lock()
	cw.quit = true
	cw.mu.Unlock()
	cw.start.Broadcast()
}

func (cw *coreWorkers) worker(i int) {
	seen := uint64(0)
	for {
		cw.mu.Lock()
		for cw.epoch == seen && !cw.quit {
			cw.start.Wait()
		}
		if cw.quit {
			cw.mu.Unlock()
			return
		}
		seen = cw.epoch
		phase, now, cores := cw.phase, cw.now, cw.cores
		cw.mu.Unlock()

		hazard := false
		for k := i; k < len(cores); k += cw.n {
			c := cores[k]
			if phase == phaseSelect {
				if c.selectIntent(now) {
					hazard = true
				}
			} else {
				c.executeIntent(now)
			}
		}

		cw.mu.Lock()
		if hazard {
			cw.hazard = true
		}
		cw.pending--
		if cw.pending == 0 {
			cw.done.Signal()
		}
		cw.mu.Unlock()
	}
}

// runPhase fans one phase out across the workers and blocks until every
// shard finished, reporting whether any core flagged an abort hazard.
func (cw *coreWorkers) runPhase(phase int, cores []*coreState, now uint64) bool {
	cw.mu.Lock()
	cw.phase, cw.now, cw.cores = phase, now, cores
	cw.pending = cw.n
	cw.hazard = false
	cw.epoch++
	cw.start.Broadcast()
	for cw.pending != 0 {
		cw.done.Wait()
	}
	h := cw.hazard
	cw.mu.Unlock()
	return h
}

// stepParallel runs one scheduling step under the two-phase protocol,
// returning whether any core issued (the same contract as stepSerial, which
// it must match bit-for-bit in observable effect).
func (g *GPU) stepParallel(cw *coreWorkers) bool {
	awake := g.wakes.due(g.now, cw.awake[:0], g.cores)
	cw.awake = awake[:0]
	// With fewer than two due cores there is nothing to overlap; the serial
	// step is both exact and cheaper than two phase hand-offs.
	if len(awake) < 2 {
		return g.stepSerial()
	}

	if cw.runPhase(phaseSelect, awake, g.now) {
		// Some instruction this cycle might abort a kernel, tearing down
		// workgroups on other cores mid-cycle — a cross-core dependency only
		// the serial visit order sequences correctly. The select phase
		// mutated nothing, so the whole cycle re-runs serially, exactly.
		return g.stepSerial()
	}
	cw.runPhase(phaseExec, awake, g.now)

	// Phase B: commit shared-state effects in ascending core-id order — the
	// order the serial scheduler applies them.
	issued := false
	for _, c := range awake {
		it := &c.intent
		if !it.issued {
			g.wakes.set(c.id, it.next)
			continue
		}
		issued = true
		st := it.run.stats
		st.WarpInstrs += it.stats.WarpInstrs
		st.ThreadInstrs += it.stats.ThreadInstrs
		st.MemInstrs += it.stats.MemInstrs
		st.SharedAccs += it.stats.SharedAccs
		if it.memPend {
			c.memCommit(it.w, it.in, it.gmask, g.now, &it.prep)
		}
		if it.retired != nil {
			it.retired.liveWGs--
		}
		if it.dispatch {
			g.dispatchNeeded = true
		}
		g.wakes.set(c.id, g.now+1)
	}
	return issued
}
