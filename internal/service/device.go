package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gpushield/internal/driver"
	"gpushield/internal/kernel"
	"gpushield/internal/pool"
	"gpushield/internal/sim"
)

// device is one pool member: a driver.Device + sim.GPU pair and the
// per-tenant launch queues feeding it. One granted launch at a time holds the
// device and runs on the goroutine that submitted it; when it releases the
// device, the next queued request is granted round-robin across tenants. The
// simulator is not thread-safe and the driver's allocators are monotonic, so
// everything that touches them — allocation, host copies, prepare, run —
// happens under mu; the queues and the grant live under the separate qmu so
// admission stays fast while a launch is running.
//
// Lock order: qmu and mu are never held together; Session.mu may be taken
// under either but never the other way around; Server.mu is never taken
// while holding either.
type device struct {
	id  int
	srv *Server

	// liveSessions counts sessions placed on this device. It is mutated only
	// under Server.mu (placement happens there) but read atomically by
	// releaseSession — under device.mu — to re-verify idleness at recycle
	// time, since lock order forbids taking Server.mu there.
	liveSessions atomic.Int64

	qmu    sync.Mutex
	queues map[string][]*launchReq // per-tenant FIFO
	ring   []string                // tenants with pending work, RR order
	rrNext int
	queued int
	// busy is set while a granted launch holds the device. A request queues
	// only while it is set, and release hands the device straight to the
	// next queued request, so a free device never has a queue.
	busy    bool
	stopped bool

	mu         sync.Mutex
	dev        *driver.Device
	gpu        *sim.GPU
	owners     []ownedRange
	allocBytes uint64
	gen        int // bumped on every recycle; seeds stay distinct

	// execHook, when non-nil, observes each request as its launch starts
	// running (before any lock is taken). Tests use it to assert scheduling
	// order; it is never set in production.
	execHook func(tenant string)
}

// ownedRange attributes an address range to the session that allocated it,
// for classifying whose memory a violation was aimed at.
type ownedRange struct {
	base, end uint64
	session   string
	tenant    string
}

type launchReq struct {
	ctx      context.Context
	sess     *Session
	spec     LaunchSpec
	kernel   *kernel.Kernel
	args     []driver.Arg
	enqueued time.Time
	// turn is made when the request queues: release sends nil when it hands
	// the device over, failRemaining the refusal. Exactly one send each.
	turn chan error
}

// LaunchResult is the wire outcome of one launch.
type LaunchResult struct {
	Kernel       string   `json:"kernel"`
	Cycles       uint64   `json:"cycles"`
	WarpInstrs   uint64   `json:"warp_instrs"`
	MemInstrs    uint64   `json:"mem_instrs"`
	Checks       uint64   `json:"checks"`
	Violations   int      `json:"violations"`
	ViolationLog []string `json:"violation_log,omitempty"`
	CrossTenant  int      `json:"cross_tenant_blocked"`
	Watchdog     bool     `json:"watchdog,omitempty"`
	Aborted      bool     `json:"aborted,omitempty"`
	AbortMsg     string   `json:"abort_msg,omitempty"`
	CyclesLeft   uint64   `json:"cycles_left"`
	QueueMS      float64  `json:"queue_ms"`
	RunMS        float64  `json:"run_ms"`
}

func newDevice(s *Server, id int) *device {
	dev := driver.NewDevice(0)
	d := &device{
		id:     id,
		srv:    s,
		queues: make(map[string][]*launchReq),
		dev:    dev,
		gpu:    sim.New(s.cfg.gpuConfig(), dev),
	}
	d.freshHardware()
	return d
}

// freshHardware returns the driver device + simulator pair to the state a
// newly built pair has, under a seed not used before on this device. Callers
// hold mu (or own the device exclusively, as in newDevice).
func (d *device) freshHardware() {
	seed := d.srv.cfg.Seed + int64(d.id)*1_000_003 + int64(d.gen)*7_919
	d.gen++
	d.dev.Reset(seed)
	// Serving traffic is strictly serialized per device, which is what makes
	// RBT-region recycling legal — and what keeps device memory flat over
	// millions of launches.
	d.dev.SetRBTRecycle(true)
	d.gpu.Reset()
	d.owners = nil
	d.allocBytes = 0
}

// rebuildGPU resets only the simulator after a contained panic: the
// microarchitectural state (caches, BCU logs, wake heap) may be poisoned
// mid-run, but device memory — which holds every live session's buffers —
// is kept.
func (d *device) rebuildGPU() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.gpu.Reset()
	d.srv.stats.gpuRebuilds.Add(1)
}

// malloc allocates in the device's shared address space and records the
// range's owner for violation attribution. The closed re-check happens under
// mu (Session.mu is a leaf below it): a session torn down between
// reserveBuffer and here has already had — or will have, ordered after us —
// its ownership records purged by releaseSession, so refusing closed
// sessions means no allocation can outlive its owner's records.
func (d *device) malloc(sess *Session, name string, size uint64, readOnly bool) (*driver.Buffer, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if sess.isClosed() {
		return nil, fmt.Errorf("%w: session closed", ErrNotFound)
	}
	buf := d.dev.Malloc(sess.ID+"/"+name, size, readOnly)
	d.owners = append(d.owners, ownedRange{
		base: buf.Base, end: buf.Base + buf.Padded, session: sess.ID, tenant: sess.Tenant,
	})
	d.allocBytes += buf.Padded
	return buf, nil
}

func (d *device) copyToDevice(b *driver.Buffer, offset uint64, data []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.dev.CopyToDevice(b, offset, data); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return nil
}

func (d *device) copyFromDevice(b *driver.Buffer, offset uint64, n int) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	data, err := d.dev.CopyFromDevice(b, offset, n)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return data, nil
}

// releaseSession drops the session's ownership records; when the device is
// idle and past its allocation high-water mark it is recycled whole, so a
// long-lived daemon's memory stays flat under session churn.
//
// Idleness is decided here, under mu, never from a snapshot taken at
// CloseSession time: between that snapshot and this lock a concurrent
// CreateSession could place a new session and Malloc buffers, and recycling
// on the stale answer would swap the allocator out from under live buffers,
// aliasing their bases with other tenants' future allocations. The atomic
// load closes that window: a session placed before we acquired mu has
// already incremented liveSessions (so we skip the recycle), and one placed
// after can only malloc once we release mu — on the fresh allocator.
func (d *device) releaseSession(sess *Session) {
	d.mu.Lock()
	defer d.mu.Unlock()
	kept := d.owners[:0]
	for _, o := range d.owners {
		if o.session != sess.ID {
			kept = append(kept, o)
		}
	}
	d.owners = kept
	if d.liveSessions.Load() == 0 && d.allocBytes >= d.srv.cfg.DeviceHighWater {
		d.freshHardware()
		d.srv.stats.deviceRecycles.Add(1)
	}
}

// ownerOfLocked resolves which session owns the range containing addr.
// Caller holds mu.
func (d *device) ownerOfLocked(addr uint64) *ownedRange {
	for i := range d.owners {
		if addr >= d.owners[i].base && addr < d.owners[i].end {
			return &d.owners[i]
		}
	}
	return nil
}

func (d *device) queueLen() int {
	d.qmu.Lock()
	defer d.qmu.Unlock()
	return d.queued
}

// acquire grants req the device at once when it is free. Otherwise it
// admits the request into its tenant's queue, shedding when either the
// device-wide or the per-tenant bound is hit, and makes req.turn, on which
// the request's turn (or its refusal at stop) arrives.
func (d *device) acquire(req *launchReq) error {
	d.qmu.Lock()
	defer d.qmu.Unlock()
	if d.stopped {
		return &RetryableError{Err: ErrDraining, RetryAfter: time.Second}
	}
	if !d.busy {
		d.busy = true
		d.srv.stats.inflight.Add(1)
		return nil
	}
	if d.queued >= d.srv.cfg.QueueDepth {
		return &RetryableError{
			Err:        fmt.Errorf("%w: device %d launch queue full (%d)", ErrOverloaded, d.id, d.srv.cfg.QueueDepth),
			RetryAfter: d.srv.retryAfterFor(d.queued),
		}
	}
	tenant := req.sess.Tenant
	q := d.queues[tenant]
	if len(q) >= d.srv.cfg.TenantQueueDepth {
		return &RetryableError{
			Err:        fmt.Errorf("%w: tenant %q launch queue full (%d)", ErrQuota, tenant, d.srv.cfg.TenantQueueDepth),
			RetryAfter: d.srv.retryAfterFor(d.queued),
		}
	}
	if len(q) == 0 {
		d.ring = append(d.ring, tenant)
	}
	req.turn = make(chan error, 1)
	d.queues[tenant] = append(q, req)
	d.queued++
	return nil
}

// release ends the holder's grant: it hands the device to the next queued
// request, round-robin across tenants, or marks it free when nothing is
// queued. inflight counts granted launches, so a hand-off leaves it as is.
func (d *device) release() {
	d.qmu.Lock()
	defer d.qmu.Unlock()
	if len(d.ring) == 0 {
		d.busy = false
		d.srv.stats.inflight.Add(-1)
		return
	}
	if d.rrNext >= len(d.ring) {
		d.rrNext = 0
	}
	tenant := d.ring[d.rrNext]
	q := d.queues[tenant]
	req := q[0]
	if len(q) == 1 {
		delete(d.queues, tenant)
		d.ring = append(d.ring[:d.rrNext], d.ring[d.rrNext+1:]...)
		// rrNext now already points at the following tenant.
	} else {
		d.queues[tenant] = q[1:]
		d.rrNext++
	}
	d.queued--
	req.turn <- nil
}

// failRemaining refuses everything still queued and marks the device
// stopped so no later acquire can grant or queue. Exactly-once delivery
// holds: a queued request is either handed the device by release or refused
// here.
func (d *device) failRemaining() {
	d.qmu.Lock()
	defer d.qmu.Unlock()
	d.stopped = true
	for tenant, q := range d.queues {
		for _, req := range q {
			req.turn <- fmt.Errorf("%w: server stopping", ErrDraining)
		}
		delete(d.queues, tenant)
	}
	d.ring = nil
	d.queued = 0
}

// run executes a granted launch on the caller's goroutine and then releases
// the device.
func (d *device) run(req *launchReq) (*LaunchResult, error) {
	defer d.release()
	return d.runOne(req)
}

// runOne executes one launch end to end: budget arming, prepare, simulate,
// attribute violations, charge cycles. A panic anywhere in here is contained
// to this request and the simulator is rebuilt.
func (d *device) runOne(req *launchReq) (res *LaunchResult, err error) {
	srv := d.srv
	sess := req.sess
	if d.execHook != nil {
		d.execHook(sess.Tenant)
	}

	// Declared before the device lock is taken so it runs after the lock's
	// deferred unlock: rebuildGPU can then re-acquire mu safely.
	defer func() {
		if v := recover(); v != nil {
			srv.stats.panics.Add(1)
			d.rebuildGPU()
			res, err = nil, pool.NewPanicError("launch "+req.spec.Kernel, -1, v)
		}
	}()

	budget := sess.takeCycleBudget(srv.cfg.LaunchCycleCap)
	if budget == 0 {
		srv.stats.shedQuota.Add(1)
		return nil, fmt.Errorf("%w: cycle budget exhausted", ErrQuota)
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	if sess.isClosed() {
		return nil, fmt.Errorf("%w: session closed while queued", ErrNotFound)
	}

	l, err := d.dev.PrepareLaunch(req.kernel, req.spec.Grid, req.spec.Block, req.args, driver.ModeShield, nil)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}

	// The watchdog enforces the smaller of the per-launch cap and the
	// tenant's remaining lifetime budget; a runaway kernel burns only its
	// own tenant's cycles.
	d.gpu.SetMaxCycles(budget)

	// The run aborts on the request's deadline/cancellation AND on a server
	// hard stop, whichever comes first.
	runCtx, cancel := context.WithCancel(req.ctx)
	defer cancel()
	stopHook := context.AfterFunc(srv.hardCtx, cancel)
	defer stopHook()

	started := time.Now()
	st, runErr := d.gpu.RunCtx(runCtx, l)
	elapsed := time.Since(started)
	srv.noteRunNanos(elapsed)

	res = &LaunchResult{
		Kernel:  req.spec.Kernel,
		QueueMS: float64(started.Sub(req.enqueued).Microseconds()) / 1000,
		RunMS:   float64(elapsed.Microseconds()) / 1000,
	}
	if st != nil {
		res.Cycles = st.Cycles()
		res.WarpInstrs = st.WarpInstrs
		res.MemInstrs = st.MemInstrs
		res.Checks = st.Checks
		res.Violations = len(st.Violations)
		res.Aborted = st.Aborted
		res.AbortMsg = st.AbortMsg
		for _, v := range st.Violations {
			// A violation whose faulting range lands in another session's
			// allocation is an attempted (and blocked) cross-tenant access.
			if o := d.ownerOfLocked(v.MinAddr); o != nil && o.session != sess.ID {
				res.CrossTenant++
			}
			if len(res.ViolationLog) < 4 {
				res.ViolationLog = append(res.ViolationLog, v.String())
			}
		}
		charged := res.Cycles
		if charged > budget {
			charged = budget
		}
		res.CyclesLeft = sess.chargeCycles(charged)
		srv.stats.cycles.Add(charged)
		srv.stats.violations.Add(uint64(res.Violations))
		if res.Violations > 0 {
			srv.stats.oobLaunches.Add(1)
		}
		srv.stats.crossTenant.Add(uint64(res.CrossTenant))
	}

	switch {
	case runErr == nil:
	case errors.Is(runErr, sim.ErrWatchdog):
		// Budget exhaustion is the tenant's own doing: a successful response
		// carrying the partial report, flagged.
		res.Watchdog = true
		srv.stats.watchdogAborts.Add(1)
	case errors.Is(runErr, sim.ErrCanceled):
		switch {
		case errors.Is(req.ctx.Err(), context.DeadlineExceeded):
			srv.stats.deadlineAborts.Add(1)
			sess.noteLaunch(res)
			return res, fmt.Errorf("%w after %v", ErrDeadline, elapsed.Round(time.Millisecond))
		case req.ctx.Err() == nil:
			// The client's context is intact, so the abort came through the
			// AfterFunc wired to the server hard stop: that is the process
			// going away (503, retry against a replica), not a client
			// cancellation (499).
			srv.stats.shedDraining.Add(1)
			sess.noteLaunch(res)
			return res, fmt.Errorf("%w: launch aborted by server stop: %v", ErrDraining, context.Cause(srv.hardCtx))
		default:
			srv.stats.canceled.Add(1)
			sess.noteLaunch(res)
			return res, fmt.Errorf("%w: %v", ErrCanceled, context.Cause(req.ctx))
		}
	default:
		return res, runErr
	}
	sess.noteLaunch(res)
	return res, nil
}
