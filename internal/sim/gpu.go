package sim

import (
	"context"
	"fmt"

	"gpushield/internal/core"
	"gpushield/internal/driver"
	"gpushield/internal/kernel"
	"gpushield/internal/memsys"
)

// cancelCheckInterval is how many scheduling steps pass between polls of the
// run context's Done channel. The poll is a non-blocking select, but even
// that is too expensive per step on the hot path; every 1024 steps the
// latency between Ctrl-C and the abort stays far below a millisecond of
// wall clock while the cost disappears into the noise. Contexts that can
// never be canceled (Done() == nil, e.g. context.Background) are detected
// once up front and never polled at all.
const cancelCheckInterval = 1024

// ShareMode selects how concurrent kernels share the GPU (§6.2).
type ShareMode uint8

const (
	// ShareInterCore partitions the cores evenly between kernels.
	ShareInterCore ShareMode = iota
	// ShareIntraCore lets every kernel's workgroups run on any core, so
	// kernels share cores (and their RCaches) at fine grain.
	ShareIntraCore
)

func (m ShareMode) String() string {
	if m == ShareIntraCore {
		return "intra-core"
	}
	return "inter-core"
}

// GPU is one simulated device instance, built over a driver.Device whose
// memory holds the kernels' data. A GPU's methods must not be called
// concurrently from multiple goroutines — but internally one launch may
// step its simulated cores on several OS threads (Config.CoreParallel, the
// two-phase deterministic scheduler): core-private work runs in parallel,
// shared-state effects commit serially in core-id order, and the results
// are byte-identical to serial stepping at every width.
type GPU struct {
	// base is the configuration the GPU was built with; cfg starts as a
	// copy, SetMaxCycles edits cfg, and Reset restores it from base.
	base  Config
	cfg   Config
	dev   *driver.Device
	cores []*coreState

	// coreWidth is the resolved CoreParallel value: how many OS threads
	// step the cores inside one launch (1 = serial stepping).
	coreWidth int

	l2    *memsys.Cache
	l2tlb *memsys.TLB
	dram  *memsys.DRAM

	now        uint64
	trackPages bool

	// wakes tracks, per core, the earliest cycle at which that core might
	// issue; the scheduling loop only visits cores whose wake time has
	// arrived, and the next idle-skip target is the minimum wake. See
	// DESIGN.md "Event-driven scheduler" for the invariants.
	wakes *wakeTimes
	// occupied is one past the highest core that has held a warp during the
	// current invocation: each invocation starts it at 0 and placeWorkgroup
	// raises it. Every core at or above it is parked at farFuture, so
	// stepSerial and nextEvent visit only the cores below it.
	occupied int
	// dispatchNeeded is set when a workgroup slot frees (retire, abort) or a
	// launch starts; dispatch runs only then instead of every cycle.
	dispatchNeeded bool

	// cycleHook, when set, runs once per simulated scheduling step; the
	// fault-injection engine uses it to corrupt microarchitectural state
	// (RCache entries, keys) at a chosen cycle.
	cycleHook func(now uint64)
	// txFault, when set, is consulted once per warp-level global-memory
	// instruction and can drop or duplicate its DRAM-bound transactions.
	txFault TxFaultFunc

	// atomicBusy serializes atomic operations to the same word: GPUs
	// resolve same-address atomics one at a time in the L2 atomic units,
	// which is what makes massively parallel device malloc slow (§5.2.1).
	atomicBusy map[uint64]uint64

	// sbCache memoizes per-kernel tables: superblocks and memory sites (see
	// superblock.go); noSuperblocks is the resolved NoSuperblocks flag.
	sbCache       map[*kernel.Kernel]*kernelTable
	noSuperblocks bool

	// noMemPlans is the resolved NoMemPlans flag: it forces the reference
	// per-lane LSU path instead of warp memory plans (see memplan.go).
	noMemPlans bool

	// aluLat is aluLatency pre-resolved per opcode, indexed by kernel.Op:
	// one load on the per-issue path instead of a switch.
	aluLat [256]uint16

	// Per-invocation scratch, recycled so a steady-state launch on a warm
	// GPU allocates nothing beyond its caller-escaping report: run shells
	// (runPool), the active-run list (runs), the per-core dispatch lists
	// (allowed), and the single-launch slice RunCtx hands to
	// RunConcurrentCtx (oneLaunch). The shells' launch/stats/pages/tab
	// pointers are cleared on release so a parked shell pins nothing.
	runPool   []*kernelRun
	runs      []*kernelRun
	allowed   [][]*kernelRun
	oneLaunch [1]*driver.Launch
}

// TxVerdict is a fault-injection decision for one memory instruction's
// coalesced transactions: Drop loses them (stores silently discarded, loads
// return zeros), Dup re-issues them (timing disturbance only).
type TxVerdict struct {
	Drop bool
	Dup  bool
}

// TxFaultFunc decides the fault verdict for one global-memory instruction.
type TxFaultFunc func(now uint64, addr uint64, isStore bool) TxVerdict

// NewGPU builds a GPU from cfg operating on dev's memory, rejecting invalid
// configurations with an error wrapping ErrInvalidConfig.
func NewGPU(cfg Config, dev *driver.Device) (*GPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &GPU{
		base:       cfg,
		dev:        dev,
		l2:         memsys.MustCache(cfg.L2),
		l2tlb:      memsys.MustTLB(cfg.L2TLB),
		dram:       memsys.NewDRAM(cfg.DRAM),
		atomicBusy: make(map[uint64]uint64),
		wakes:      newWakeTimes(cfg.Cores),
		sbCache:    make(map[*kernel.Kernel]*kernelTable),
	}
	g.coreWidth = cfg.resolveCoreParallel()
	g.noSuperblocks = cfg.resolveNoSuperblocks()
	g.noMemPlans = cfg.resolveNoMemPlans()
	for op := range g.aluLat {
		g.aluLat[op] = uint16(aluLatency(&cfg, kernel.Op(op)))
	}
	for i := 0; i < cfg.Cores; i++ {
		c := &coreState{
			id:    i,
			gpu:   g,
			l1d:   memsys.MustCache(cfg.L1D),
			l1tlb: memsys.MustTLB(cfg.L1TLB),
		}
		if cfg.EnableBCU {
			c.bcu = core.NewBCU(cfg.BCU)
			c.bcu.SetRBTFetcher(g.fetchRBT)
		}
		g.cores = append(g.cores, c)
	}
	g.reset()
	return g, nil
}

// Reset returns g to exactly the state NewGPU(cfg, dev) builds, over the
// same device: every cache, TLB, DRAM bank and BCU is emptied with its
// statistics, the configuration is restored (undoing SetMaxCycles), the
// clock goes back to cycle 0, both fault hooks and the page census are
// switched off, and the superblock cache and atomic-unit reservations are
// dropped. Workgroups still resident after a run that panicked are dropped
// too. The device is not touched: reset it with driver.Device.Reset.
//
// Reset keeps the allocations — line arrays, workgroup arenas, run shells
// and map buckets — which is what makes a reset GPU cheaper than a new one.
// It must not be called while a run is in flight.
func (g *GPU) Reset() {
	g.l2.Reset()
	g.l2tlb.Reset()
	g.dram.Reset()
	for _, c := range g.cores {
		c.l1d.Reset()
		c.l1tlb.Reset()
		if c.bcu != nil {
			c.bcu.Reset()
		}
	}
	g.reset()
}

// reset writes the initial values of the GPU's own run state; NewGPU calls
// it on freshly built caches and BCUs, Reset after resetting them.
func (g *GPU) reset() {
	g.cfg = g.base
	g.now = 0
	g.trackPages = false
	g.cycleHook = nil
	g.txFault = nil
	g.wakes.reset()
	g.occupied = 0
	clear(g.atomicBusy)
	clear(g.sbCache)
	g.oneLaunch[0] = nil
	for _, c := range g.cores {
		c.reset()
	}
}

// New is NewGPU for known-good preset configurations; it panics on an
// invalid config and must not be fed runtime input (use NewGPU for that).
func New(cfg Config, dev *driver.Device) *GPU {
	g, err := NewGPU(cfg, dev)
	if err != nil {
		panic(err)
	}
	return g
}

// SetCycleHook installs (or clears, with nil) the per-step callback used by
// fault-injection campaigns to corrupt state at a chosen cycle.
func (g *GPU) SetCycleHook(f func(now uint64)) { g.cycleHook = f }

// SetTxFault installs (or clears, with nil) the DRAM-transaction fault hook.
func (g *GPU) SetTxFault(f TxFaultFunc) { g.txFault = f }

// Config returns the GPU configuration.
func (g *GPU) Config() Config { return g.cfg }

// Device returns the underlying device.
func (g *GPU) Device() *driver.Device { return g.dev }

// Now returns the current cycle.
func (g *GPU) Now() uint64 { return g.now }

// TrackPages enables the per-buffer 4 KB page-touch census (Fig. 11).
func (g *GPU) TrackPages(on bool) { g.trackPages = on }

// SetMaxCycles rearms the kernel watchdog for subsequent runs: the next
// RunConcurrent invocation aborts after n simulated cycles (0 disables the
// watchdog). Serving loops use it to enforce a per-request cycle budget on a
// long-lived GPU — e.g. the minimum of a per-launch cap and a tenant's
// remaining quota — without rebuilding the simulator. It must not be called
// while a run is in flight.
func (g *GPU) SetMaxCycles(n uint64) { g.cfg.MaxCycles = n }

// BCU exposes core 0's BCU for inspection in tests.
func (g *GPU) BCU(coreID int) *core.BCU { return g.cores[coreID].bcu }

// fetchRBT services an L2 RCache miss from the in-memory RBT: a real
// device-memory access through the shared L2/DRAM path (§5.5).
func (g *GPU) fetchRBT(rbtBase uint64, id uint16) (core.Bounds, uint64) {
	addr := core.EntryAddr(rbtBase, id)
	var lat uint64
	if g.l2.Access(addr) {
		lat = uint64(g.cfg.L2Latency)
	} else {
		done := g.dram.Access(g.now, addr)
		lat = done - g.now + uint64(g.cfg.L2Latency)
	}
	var entry [core.BoundsEntryBytes]byte
	g.dev.Mem.ReadInto(addr, entry[:])
	return core.DecodeBounds(entry[:]), lat
}

// memAccess walks one coalesced transaction through the TLBs and cache
// hierarchy, returning its latency and whether it hit in the L1 Dcache.
func (g *GPU) memAccess(c *coreState, st *LaunchStats, addr uint64) (lat uint64, l1Hit bool) {
	// Address translation, overlapped with the L1 tag probe on a hit.
	if !c.l1tlb.Access(addr) {
		st.L1TLBMisses++
		if g.l2tlb.Access(addr) {
			lat += uint64(g.cfg.L2TLBLatency)
		} else {
			st.L2TLBMisses++
			lat += uint64(g.cfg.PageWalk)
		}
	}
	st.L1DAccesses++
	if c.l1d.Access(addr) {
		st.L1DHits++
		return lat + uint64(g.cfg.L1D.HitLatency), true
	}
	st.L2Accesses++
	if g.l2.Access(addr) {
		st.L2Hits++
		return lat + uint64(g.cfg.L1D.HitLatency) + uint64(g.cfg.L2Latency), false
	}
	done := g.dram.Access(g.now+lat, addr)
	return done - g.now + uint64(g.cfg.L2Latency), false
}

// kernelRun is the in-flight state of one launch.
type kernelRun struct {
	launch    *driver.Launch
	stats     *LaunchStats
	nextWG    int
	liveWGs   int
	started   bool
	aborted   bool
	pages     []map[uint64]struct{} // per arg index
	cores     []int                 // cores this kernel may occupy
	coresUsed map[int]struct{}      // cores that actually ran workgroups
	tab       *kernelTable          // the kernel's pre-decoded table (superblock.go)
}

// runPoolCap bounds how many retired run shells a GPU parks for reuse.
const runPoolCap = 64

// acquireRun returns a reset run shell, recycling a parked one when
// available. The stats report is always freshly allocated by the caller:
// it escapes to the user and must outlive the shell.
func (g *GPU) acquireRun() *kernelRun {
	if n := len(g.runPool); n > 0 {
		r := g.runPool[n-1]
		g.runPool[n-1] = nil
		g.runPool = g.runPool[:n-1]
		*r = kernelRun{cores: r.cores[:0], coresUsed: r.coresUsed}
		clear(r.coresUsed)
		return r
	}
	return &kernelRun{coresUsed: make(map[int]struct{})}
}

// releaseRuns parks the finished invocation's run shells for reuse and
// clears every pointer they (and the dispatch scratch) hold, so the pool
// pins neither the escaped reports nor the launches.
func (g *GPU) releaseRuns() {
	for i, r := range g.runs {
		r.launch, r.stats, r.pages, r.tab = nil, nil, nil, nil
		if len(g.runPool) < runPoolCap {
			g.runPool = append(g.runPool, r)
		}
		g.runs[i] = nil
	}
	g.runs = g.runs[:0]
	for i := range g.allowed {
		s := g.allowed[i][:cap(g.allowed[i])]
		clear(s)
		g.allowed[i] = s[:0]
	}
}

func (r *kernelRun) dispatched() bool { return r.nextWG >= r.launch.Grid }

func (r *kernelRun) finished() bool {
	return (r.dispatched() && r.liveWGs == 0 && r.started) || r.aborted
}

// Run executes a single launch to completion and returns its statistics.
// On a watchdog abort the partial report is returned together with the
// error, so callers can still inspect what happened up to the abort.
func (g *GPU) Run(l *driver.Launch) (*LaunchStats, error) {
	return g.RunCtx(context.Background(), l)
}

// RunCtx is Run under a context: cancellation (Ctrl-C, a deadline) aborts
// the launch within cancelCheckInterval scheduling steps, returning the
// partial report together with an error matching ErrCanceled. A background
// context makes RunCtx identical to Run, including its cost.
func (g *GPU) RunCtx(ctx context.Context, l *driver.Launch) (*LaunchStats, error) {
	g.oneLaunch[0] = l
	res, err := g.RunConcurrentCtx(ctx, g.oneLaunch[:], ShareIntraCore)
	g.oneLaunch[0] = nil
	if len(res) == 1 {
		return res[0], err
	}
	return nil, err
}

// RunConcurrent executes several launches simultaneously under the given
// sharing mode and returns per-launch statistics in input order.
func (g *GPU) RunConcurrent(launches []*driver.Launch, mode ShareMode) ([]*LaunchStats, error) {
	return g.RunConcurrentCtx(context.Background(), launches, mode)
}

// RunConcurrentCtx is RunConcurrent under a context. Cancellation is polled
// every cancelCheckInterval scheduling steps alongside the watchdog: every
// unfinished run is aborted with a partial report (Aborted set, AbortMsg
// naming the cancellation cause) and the returned error matches ErrCanceled.
// Runs that had already finished keep their complete reports.
func (g *GPU) RunConcurrentCtx(ctx context.Context, launches []*driver.Launch, mode ShareMode) ([]*LaunchStats, error) {
	if len(launches) == 0 {
		return nil, fmt.Errorf("%w: no launches", driver.ErrInvalidLaunch)
	}
	for _, l := range launches {
		if l == nil || l.Kernel == nil {
			return nil, fmt.Errorf("%w: nil launch", driver.ErrInvalidLaunch)
		}
		if l.Block > g.cfg.MaxThreadsPerCore {
			return nil, fmt.Errorf("%w: %s: block of %d exceeds %d threads per core",
				driver.ErrInvalidLaunch, l.Kernel.Name, l.Block, g.cfg.MaxThreadsPerCore)
		}
	}
	runs := g.runs[:0]
	for _, l := range launches {
		r := g.acquireRun()
		r.launch = l
		r.stats = &LaunchStats{
			Kernel: l.Kernel.Name, Mode: l.Mode.String(), StartCycle: g.now,
		}
		r.tab = g.lower(l.Kernel)
		if g.trackPages {
			r.pages = make([]map[uint64]struct{}, len(l.Args))
			for j := range r.pages {
				r.pages[j] = make(map[uint64]struct{})
			}
		}
		runs = append(runs, r)
	}
	g.runs = runs
	defer g.releaseRuns()

	// Core assignment.
	switch {
	case len(runs) == 1 || mode == ShareIntraCore:
		for _, r := range runs {
			for c := 0; c < g.cfg.Cores; c++ {
				r.cores = append(r.cores, c)
			}
		}
	default: // inter-core partitioning
		per := g.cfg.Cores / len(runs)
		if per == 0 {
			per = 1
		}
		for i, r := range runs {
			lo := i * per
			hi := lo + per
			if i == len(runs)-1 || hi > g.cfg.Cores {
				hi = g.cfg.Cores
			}
			for c := lo; c < hi; c++ {
				r.cores = append(r.cores, c)
			}
		}
	}

	// Program the per-kernel key and RBT location into each core's BCU.
	if g.cfg.EnableBCU {
		for _, r := range runs {
			for _, ci := range r.cores {
				g.cores[ci].bcu.InstallKernel(r.launch.KernelID, r.launch.Key, r.launch.RBT, r.launch.RBTBase)
			}
		}
	}

	// Round-robin dispatch cursors per core over the runs allowed there.
	if len(g.allowed) != g.cfg.Cores {
		g.allowed = make([][]*kernelRun, g.cfg.Cores)
	}
	allowed := g.allowed
	for i := range allowed {
		allowed[i] = allowed[i][:0]
	}
	for _, r := range runs {
		for _, ci := range r.cores {
			allowed[ci] = append(allowed[ci], r)
		}
	}

	live := len(runs)
	t0 := g.now
	var werr error
	// Captured once: a nil Done channel (context.Background and friends)
	// means the context can never be canceled, so the loop never polls it.
	done := ctx.Done()
	var steps uint64
	// A context that is already dead aborts before the first cycle: short
	// kernels can otherwise finish inside the first poll interval and make
	// cancellation look like success.
	if done != nil {
		select {
		case <-done:
			cause := context.Cause(ctx)
			g.abortUnfinished(runs, "canceled: "+cause.Error())
			stats := make([]*LaunchStats, len(runs))
			for i, r := range runs {
				stats[i] = r.stats
			}
			return stats, fmt.Errorf("%w: %v", ErrCanceled, cause)
		default:
		}
	}
	g.wakes.reset()
	g.occupied = 0
	g.dispatchNeeded = false
	g.dispatch(allowed)
	// Parallel core stepping (Config.CoreParallel): phase-A workers live for
	// this invocation only, parked between cycles. Fault hooks stay cycle-
	// deterministic: cycleHook fires below on this goroutine before any core
	// steps, and txFault fires inside the serial commit in core-id order.
	var cw *coreWorkers
	if g.coreWidth > 1 {
		cw = newCoreWorkers(g, g.coreWidth)
		defer cw.stop()
	}
	for live > 0 {
		if g.cycleHook != nil {
			g.cycleHook(g.now)
		}
		var issued bool
		if cw != nil {
			issued = g.stepParallel(cw)
		} else {
			issued = g.stepSerial()
		}
		// Kernel watchdog: a run that exhausts the cycle budget is aborted
		// with a partial report instead of spinning forever.
		if werr == nil && g.cfg.MaxCycles > 0 && g.now-t0 >= g.cfg.MaxCycles {
			msg := fmt.Sprintf("watchdog: MaxCycles=%d exceeded", g.cfg.MaxCycles)
			werr = fmt.Errorf("%w: %s", ErrWatchdog, msg)
			g.abortUnfinished(runs, msg)
		}
		// Cancellation poll, next to the watchdog: a canceled context aborts
		// every unfinished run with a partial report. The poll never mutates
		// simulator state on the not-canceled path, so enabling it cannot
		// perturb golden statistics.
		steps++
		if werr == nil && done != nil && steps%cancelCheckInterval == 0 {
			select {
			case <-done:
				cause := context.Cause(ctx)
				msg := "canceled: " + cause.Error()
				werr = fmt.Errorf("%w: %v", ErrCanceled, cause)
				g.abortUnfinished(runs, msg)
			default:
			}
		}
		// Retire finished runs and refill free workgroup slots.
		for _, r := range runs {
			if r.stats.FinishCycle == 0 && r.finished() {
				r.stats.FinishCycle = g.now + 1
				live--
				if g.cfg.EnableBCU {
					for _, ci := range r.cores {
						g.harvestBCU(g.cores[ci], r)
					}
					for _, ci := range r.cores {
						g.cores[ci].bcu.RemoveKernel(r.launch.KernelID)
					}
				}
				g.pruneAtomicBusy()
			}
		}
		if live == 0 {
			break
		}
		if g.dispatchNeeded {
			g.dispatchNeeded = false
			g.dispatch(allowed)
		}
		if issued {
			g.now++
		} else {
			g.now = g.nextEvent()
		}
	}

	for _, r := range runs {
		r.stats.CoresUsed = len(r.coresUsed)
		if g.trackPages {
			r.stats.PagesPerBuffer = make(map[string]int)
			for j, m := range r.pages {
				if b := r.launch.ArgBuffers[j]; b != nil {
					r.stats.PagesPerBuffer[b.Name] = len(m)
				}
			}
		}
	}
	stats := make([]*LaunchStats, len(runs))
	for i, r := range runs {
		stats[i] = r.stats
	}
	return stats, werr
}

// stepSerial visits every core in ascending id order on the calling
// goroutine and lets each issue at most one instruction — the reference
// scheduler whose observable effects the parallel path must reproduce
// bit-for-bit. It is also the fallback for cycles the parallel path cannot
// prove abort-free.
func (g *GPU) stepSerial() bool {
	issued := false
	now := g.now
	// Iterate the wake array directly: cores that provably cannot issue yet
	// — their wake time is maintained at issue, barrier release, retire, and
	// dispatch — cost one load and compare each. Cores at or above the
	// occupied mark are parked at farFuture and are not visited at all.
	for id, t := range g.wakes.wake[:g.occupied] {
		if t > now {
			continue
		}
		if g.cores[id].tryIssue(now) {
			issued = true
		}
	}
	return issued
}

// abortUnfinished tears down every run that has not completed, attributing
// the abort to the watchdog. Finished runs keep their reports untouched.
func (g *GPU) abortUnfinished(runs []*kernelRun, msg string) {
	for _, r := range runs {
		if r.stats.FinishCycle == 0 && !r.finished() {
			g.abortRun(r, msg)
		}
	}
}

// harvestBCU folds a core's per-kernel violation log into the run's stats.
// Counter attribution happens at check time; only the violation records and
// fault state need collecting here. The records are consumed, not copied:
// kernel IDs recycle across launches, and a GPU serving many launches must
// not leak one kernel's violations into a later launch that draws the same
// ID (nor grow the log without bound).
func (g *GPU) harvestBCU(c *coreState, r *kernelRun) {
	if v, ok := c.bcu.Faulted(); ok && v.KernelID == r.launch.KernelID {
		r.stats.Violations = append(r.stats.Violations, v)
	}
	r.stats.Violations = append(r.stats.Violations, c.bcu.TakeViolations(r.launch.KernelID)...)
}

// dispatch fills free core slots with pending workgroups, round-robin over
// the kernels allowed on each core.
func (g *GPU) dispatch(allowed [][]*kernelRun) {
	for ci, c := range g.cores {
		runs := allowed[ci]
		if len(runs) == 0 {
			continue
		}
		for {
			placed := false
			for k := 0; k < len(runs); k++ {
				r := runs[(c.rrRun+k)%len(runs)]
				if r.aborted || r.dispatched() {
					continue
				}
				l := r.launch
				if c.threadsUsed+l.Block > g.cfg.MaxThreadsPerCore || len(c.wgs) >= g.cfg.MaxWGsPerCore {
					continue
				}
				c.placeWorkgroup(r, r.nextWG, g.now)
				r.coresUsed[c.id] = struct{}{}
				r.nextWG++
				r.liveWGs++
				r.started = true
				c.rrRun = (c.rrRun + k + 1) % len(runs)
				placed = true
				break
			}
			if !placed {
				break
			}
		}
	}
}

// nextEvent returns the earliest future cycle at which any warp can issue:
// the minimum core wake time. The wakes are exact whenever this is
// called — a scheduling step reaches nextEvent only when no core issued, so
// every core whose wake had arrived just recomputed its wake in a failed
// tryIssue scan, and the remaining cores' wakes were maintained by the
// events (issue, barrier release, placement, abort) that could move them.
func (g *GPU) nextEvent() uint64 {
	next := g.wakes.min(g.occupied)
	if next == farFuture || next <= g.now {
		return g.now + 1
	}
	return next
}

// pruneAtomicBusy drops atomic-unit reservations that ended at or before the
// current cycle. Run at launch retire, it keeps the map from accumulating
// one entry per atomically-touched word across a long campaign on a reused
// GPU; entries with busyUntil <= now can never delay a future atomic (every
// future start time is >= now), so dropping them cannot change timing.
func (g *GPU) pruneAtomicBusy() {
	for word, busy := range g.atomicBusy {
		if busy <= g.now {
			delete(g.atomicBusy, word)
		}
	}
}
