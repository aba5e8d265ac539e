// Package service is the multi-tenant GPU service layer behind the
// gpushieldd daemon: a pool of simulated GPUShield devices shared by
// mutually untrusting tenants. Each tenant session gets its own buffers in a
// shared per-device address space — isolation between them is enforced not
// by separate address spaces but by GPUShield's region-based bounds checking,
// the deployment model the paper targets (§3, multi-tenant cloud GPU).
//
// The robustness contract, in one place:
//
//   - Admission control: every request is checked against per-tenant budgets
//     (buffer count, resident bytes, lifetime simulated cycles, session
//     count) before it can consume shared resources. Rejections are typed
//     (ErrQuota) and cheap.
//   - Bounded queues: a launch runs on the goroutine that submitted it, at
//     once when its device is free; otherwise it waits in a per-tenant FIFO
//     queue, and each finished launch hands the device to the next request
//     round-robin across tenants, so one chatty tenant cannot starve the rest.
//     Full queues shed explicitly (ErrQuota / ErrOverloaded with a
//     Retry-After hint) instead of building unbounded backlog.
//   - Deadlines: every launch carries a context deadline, propagated into
//     the simulator via RunCtx; an expired deadline aborts the run and
//     returns a partial report (ErrDeadline).
//   - Cycle budgets: the per-launch watchdog is armed with
//     min(LaunchCycleCap, tenant's remaining cycle budget), so a spinning
//     kernel burns only its own tenant's budget.
//   - Panic containment: a panic anywhere in the prepare/run path is
//     contained to the request (pool.ErrRunPanic), and the device's
//     simulator state is rebuilt before the next launch.
//   - Graceful drain: Drain stops admission, lets queued work finish (or
//     cuts it over to hard abort when its context expires), and returns only
//     after every granted launch has released its device.
package service

import (
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"gpushield/internal/core"
	"gpushield/internal/driver"
	"gpushield/internal/sim"
)

// Config sizes the service. The zero value is not usable; start from
// DefaultConfig.
type Config struct {
	// Devices is the number of simulated GPUs in the pool. Sessions are
	// placed on the least-loaded device at creation and stay there.
	Devices int

	// CoreParallel is the per-launch core-stepping width passed to the
	// simulator (sim.Config.CoreParallel).
	CoreParallel int

	// QueueDepth bounds the total launches queued per device across all
	// tenants; beyond it admission sheds with ErrOverloaded (503).
	QueueDepth int

	// TenantQueueDepth bounds the launches one tenant may have queued on a
	// device; beyond it admission sheds with ErrQuota (429).
	TenantQueueDepth int

	// MaxSessions bounds live sessions across the service (shared-resource
	// limit, 503 beyond); TenantSessions bounds them per tenant (429).
	MaxSessions    int
	TenantSessions int

	// BufferBudget is the per-session buffer-count quota. It is the
	// service-level reflection of the 14-bit buffer-ID budget: every buffer
	// consumes an RBT entry in each launch that binds it.
	BufferBudget int

	// ByteBudget is the per-session resident-byte quota, charged at the
	// allocator's padded size (the real footprint).
	ByteBudget uint64

	// CycleBudget is the per-session lifetime budget of simulated cycles.
	// LaunchCycleCap additionally caps a single launch; the watchdog is
	// armed with the smaller of the cap and the session's remainder.
	CycleBudget    uint64
	LaunchCycleCap uint64

	// DefaultDeadline applies to launches that carry none; MaxDeadline
	// clamps client-supplied deadlines.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration

	// MaxGrid / MaxBlock / MaxLaunchThreads bound launch geometry.
	MaxGrid          int
	MaxBlock         int
	MaxLaunchThreads int

	// DeviceHighWater is the allocated-byte level past which an idle device
	// (zero live sessions) is recycled — fresh allocator and backing — to
	// keep a long-lived daemon's memory flat under session churn.
	DeviceHighWater uint64

	// Seed makes device ID/key generation deterministic for tests.
	Seed int64
}

// DefaultConfig returns a config sized for a small shared daemon.
func DefaultConfig() Config {
	return Config{
		Devices:          2,
		CoreParallel:     1,
		QueueDepth:       64,
		TenantQueueDepth: 4,
		MaxSessions:      4096,
		TenantSessions:   8,
		BufferBudget:     8,
		ByteBudget:       1 << 20,
		CycleBudget:      4 << 20,
		LaunchCycleCap:   256 << 10,
		DefaultDeadline:  2 * time.Second,
		MaxDeadline:      10 * time.Second,
		MaxGrid:          64,
		MaxBlock:         1024,
		MaxLaunchThreads: 16384,
		DeviceHighWater:  64 << 20,
		Seed:             1,
	}
}

// gpuConfig is the simulator configuration every pool device runs:
// shield-on, per-request watchdog armed by each launch.
func (c Config) gpuConfig() sim.Config {
	sc := sim.NvidiaConfig().WithShield(core.DefaultBCUConfig())
	sc.CoreParallel = c.CoreParallel
	return sc
}

func (c Config) validate() error {
	if c.Devices <= 0 || c.QueueDepth <= 0 || c.TenantQueueDepth <= 0 ||
		c.MaxSessions <= 0 || c.TenantSessions <= 0 || c.BufferBudget <= 0 ||
		c.ByteBudget == 0 || c.CycleBudget == 0 || c.LaunchCycleCap == 0 ||
		c.DefaultDeadline <= 0 || c.MaxDeadline < c.DefaultDeadline ||
		c.MaxGrid <= 0 || c.MaxBlock <= 0 || c.MaxLaunchThreads <= 0 {
		return fmt.Errorf("%w: invalid service config %+v", ErrBadRequest, c)
	}
	return c.gpuConfig().Validate()
}

// Server is the multi-tenant service: a device pool plus the session table.
type Server struct {
	cfg  Config
	devs []*device

	// hardCtx is canceled exactly once (stop) when the server goes down for
	// real: in-flight simulations abort and queued launches are refused.
	hardCtx    context.Context
	hardCancel context.CancelCauseFunc
	stopOnce   sync.Once

	mu           sync.RWMutex
	sessions     map[string]*Session
	tenantCounts map[string]int
	draining     bool

	stats counters
}

// New builds a Server. It starts no goroutine: each launch runs on the
// goroutine that calls Launch. Drain or Close stops the server.
func New(cfg Config) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	s := &Server{
		cfg:          cfg,
		hardCtx:      ctx,
		hardCancel:   cancel,
		sessions:     make(map[string]*Session),
		tenantCounts: make(map[string]int),
	}
	for i := 0; i < cfg.Devices; i++ {
		s.devs = append(s.devs, newDevice(s, i))
	}
	return s, nil
}

// stop cancels hardCtx exactly once with the given cause, so running
// simulations abort, refuses every queued launch, and returns once every
// granted launch has released its device.
func (s *Server) stop(cause error) {
	s.stopOnce.Do(func() { s.hardCancel(cause) })
	for _, d := range s.devs {
		d.failRemaining()
	}
	// No device grants again once stopped, so inflight only falls from here.
	s.awaitQuiet(context.Background())
}

// Config returns the server's configuration.
func (s *Server) Config() Config { return s.cfg }

func (s *Server) isDraining() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.draining
}

func newSessionID() string {
	var b [12]byte
	if _, err := crand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("service: session id entropy: %v", err))
	}
	return "s_" + hex.EncodeToString(b[:])
}

// SessionInfo is the wire description of a session.
type SessionInfo struct {
	ID           string `json:"id"`
	Tenant       string `json:"tenant"`
	Device       int    `json:"device"`
	CyclesLeft   uint64 `json:"cycles_left"`
	BufferBudget int    `json:"buffer_budget"`
	ByteBudget   uint64 `json:"byte_budget"`
}

// CreateSession admits a new tenant session, placing it on the least-loaded
// device. The returned session ID is the capability for every later request.
func (s *Server) CreateSession(tenant string) (*SessionInfo, error) {
	if tenant == "" {
		return nil, fmt.Errorf("%w: empty tenant name", ErrBadRequest)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.stats.shedDraining.Add(1)
		return nil, &RetryableError{Err: ErrDraining, RetryAfter: time.Second}
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.stats.shedOverload.Add(1)
		return nil, &RetryableError{Err: fmt.Errorf("%w: session table full (%d)", ErrOverloaded, s.cfg.MaxSessions), RetryAfter: s.retryAfter()}
	}
	if s.tenantCounts[tenant] >= s.cfg.TenantSessions {
		s.stats.shedQuota.Add(1)
		return nil, fmt.Errorf("%w: tenant %q at its session limit (%d)", ErrQuota, tenant, s.cfg.TenantSessions)
	}
	// Least-loaded placement; liveSessions is mutated only under s.mu.
	dev := s.devs[0]
	for _, d := range s.devs[1:] {
		if d.liveSessions.Load() < dev.liveSessions.Load() {
			dev = d
		}
	}
	dev.liveSessions.Add(1)
	s.tenantCounts[tenant]++
	sess := &Session{
		ID:         newSessionID(),
		Tenant:     tenant,
		dev:        dev,
		buffers:    make(map[string]*driver.Buffer),
		cyclesLeft: s.cfg.CycleBudget,
	}
	s.sessions[sess.ID] = sess
	s.stats.sessionsCreated.Add(1)
	return s.sessionInfoLocked(sess), nil
}

func (s *Server) sessionInfoLocked(sess *Session) *SessionInfo {
	return &SessionInfo{
		ID:           sess.ID,
		Tenant:       sess.Tenant,
		Device:       sess.dev.id,
		CyclesLeft:   sess.cyclesRemaining(),
		BufferBudget: s.cfg.BufferBudget,
		ByteBudget:   s.cfg.ByteBudget,
	}
}

func (s *Server) session(id string) (*Session, error) {
	s.mu.RLock()
	sess := s.sessions[id]
	s.mu.RUnlock()
	if sess == nil {
		return nil, fmt.Errorf("%w: session %q", ErrNotFound, id)
	}
	return sess, nil
}

// CloseSession tears a session down: its buffers leave the ownership map,
// its tenant slot frees, and an idle device past its allocation high-water
// mark is recycled. Launches still queued for the session fail with
// ErrNotFound when their turn comes.
func (s *Server) CloseSession(id string) error {
	s.mu.Lock()
	sess := s.sessions[id]
	if sess == nil {
		s.mu.Unlock()
		return fmt.Errorf("%w: session %q", ErrNotFound, id)
	}
	delete(s.sessions, id)
	if n := s.tenantCounts[sess.Tenant]; n <= 1 {
		delete(s.tenantCounts, sess.Tenant)
	} else {
		s.tenantCounts[sess.Tenant] = n - 1
	}
	dev := sess.dev
	dev.liveSessions.Add(-1)
	s.mu.Unlock()

	sess.close()
	// Whether the device is idle enough to recycle is decided inside
	// releaseSession, under the device lock — a snapshot taken here could go
	// stale against a concurrent CreateSession before the recycle runs.
	dev.releaseSession(sess)
	s.stats.sessionsClosed.Add(1)
	return nil
}

// retryAfter estimates how long a shed client should wait before retrying:
// current total queue depth times the observed per-launch service time,
// spread over the device pool. Clamped to a sane band. Must not be called
// with any device's qmu held (it takes them all); queue-locked paths use
// retryAfterFor with their own depth instead.
func (s *Server) retryAfter() time.Duration {
	queued := 0
	for _, d := range s.devs {
		queued += d.queueLen()
	}
	return s.retryAfterFor(queued / len(s.devs))
}

// retryAfterFor turns a backlog depth into a Retry-After hint using the
// smoothed per-launch service time. Lock-free.
func (s *Server) retryAfterFor(queued int) time.Duration {
	per := time.Duration(s.stats.runNanosEWMA.Load())
	if per == 0 {
		per = 5 * time.Millisecond
	}
	est := per * time.Duration(queued+1)
	if est < 10*time.Millisecond {
		est = 10 * time.Millisecond
	}
	if est > 5*time.Second {
		est = 5 * time.Second
	}
	return est
}

// noteRunNanos folds one launch's service time into the EWMA used for
// Retry-After hints (alpha = 1/8, integer arithmetic, racy-by-design: the
// hint does not need precision).
func (s *Server) noteRunNanos(d time.Duration) {
	old := s.stats.runNanosEWMA.Load()
	if old == 0 {
		s.stats.runNanosEWMA.Store(uint64(d))
		return
	}
	s.stats.runNanosEWMA.Store(old - old/8 + uint64(d)/8)
}

// BufferInfo is the wire description of one allocation.
type BufferInfo struct {
	Name        string `json:"name"`
	Size        uint64 `json:"size"`
	Padded      uint64 `json:"padded"`
	ReadOnly    bool   `json:"read_only"`
	BytesLeft   uint64 `json:"bytes_left"`
	BuffersLeft int    `json:"buffers_left"`
}

// Malloc allocates a named device buffer for the session, charged against
// its buffer-count and resident-byte budgets at the padded (real) size.
func (s *Server) Malloc(sessionID, name string, size uint64, readOnly bool) (*BufferInfo, error) {
	sess, err := s.session(sessionID)
	if err != nil {
		return nil, err
	}
	if name == "" || size == 0 {
		return nil, fmt.Errorf("%w: buffer needs a name and a nonzero size", ErrBadRequest)
	}
	if size > s.cfg.ByteBudget {
		return nil, fmt.Errorf("%w: %d bytes exceeds the %d-byte budget", ErrQuota, size, s.cfg.ByteBudget)
	}
	padded := nextPow2(size)
	if err := sess.reserveBuffer(name, padded, s.cfg); err != nil {
		return nil, err
	}
	buf, err := sess.dev.malloc(sess, name, size, readOnly)
	if err != nil {
		// The session closed between the reservation and the device-side
		// allocation; roll the quota charge back so nothing leaks.
		sess.unreserveBuffer(name, padded)
		return nil, err
	}
	bytesLeft, buffersLeft := sess.commitBuffer(name, buf, s.cfg)
	return &BufferInfo{
		Name: name, Size: size, Padded: buf.Padded, ReadOnly: readOnly,
		BytesLeft: bytesLeft, BuffersLeft: buffersLeft,
	}, nil
}

// WriteBuffer copies host bytes into a session buffer (H2D).
func (s *Server) WriteBuffer(sessionID, name string, offset uint64, data []byte) error {
	sess, err := s.session(sessionID)
	if err != nil {
		return err
	}
	buf, err := sess.buffer(name)
	if err != nil {
		return err
	}
	// Read-only is a kernel-side attribute; the owning host may still
	// initialize the contents.
	return sess.dev.copyToDevice(buf, offset, data)
}

// ReadBuffer copies a session buffer's bytes back to the host (D2H).
func (s *Server) ReadBuffer(sessionID, name string, offset uint64, n int) ([]byte, error) {
	sess, err := s.session(sessionID)
	if err != nil {
		return nil, err
	}
	buf, err := sess.buffer(name)
	if err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("%w: negative read length", ErrBadRequest)
	}
	return sess.dev.copyFromDevice(buf, offset, n)
}

// Launch admits, queues, and executes one kernel launch on the calling
// goroutine, blocking until its outcome. The context carries the caller's cancellation (a vanished client
// aborts the run); the effective deadline is the spec's (clamped to
// MaxDeadline) or DefaultDeadline.
func (s *Server) Launch(ctx context.Context, sessionID string, spec LaunchSpec) (*LaunchResult, error) {
	sess, err := s.session(sessionID)
	if err != nil {
		return nil, err
	}
	if s.isDraining() {
		s.stats.shedDraining.Add(1)
		return nil, &RetryableError{Err: ErrDraining, RetryAfter: time.Second}
	}
	req, err := s.buildRequest(sess, spec)
	if err != nil {
		return nil, err
	}
	if sess.cyclesRemaining() == 0 {
		s.stats.shedQuota.Add(1)
		return nil, fmt.Errorf("%w: cycle budget exhausted", ErrQuota)
	}

	deadline := s.cfg.DefaultDeadline
	if spec.DeadlineMS > 0 {
		deadline = time.Duration(spec.DeadlineMS) * time.Millisecond
		if deadline > s.cfg.MaxDeadline {
			deadline = s.cfg.MaxDeadline
		}
	}
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()
	req.ctx = ctx

	if err := sess.dev.acquire(req); err != nil {
		switch {
		case errors.Is(err, ErrQuota):
			s.stats.shedQuota.Add(1)
		case errors.Is(err, ErrDraining):
			s.stats.shedDraining.Add(1)
		default:
			s.stats.shedOverload.Add(1)
		}
		return nil, err
	}
	var res *LaunchResult
	if req.turn != nil {
		// Queued: exactly one of release's hand-off and failRemaining's
		// refusal arrives, even when the server is tearing down, so this
		// wait cannot leak.
		err = <-req.turn
	}
	if err == nil {
		res, err = sess.dev.run(req)
	}
	s.stats.launches.Add(1)
	if err != nil {
		s.stats.launchErrors.Add(1)
	}
	return res, err
}

// buildRequest validates a spec against the catalog, the geometry caps, and
// the session's buffers, returning a ready-to-queue request.
func (s *Server) buildRequest(sess *Session, spec LaunchSpec) (*launchReq, error) {
	k, err := lookupKernel(spec.Kernel)
	if err != nil {
		return nil, err
	}
	if spec.Grid <= 0 || spec.Block <= 0 || spec.Grid > s.cfg.MaxGrid || spec.Block > s.cfg.MaxBlock {
		return nil, fmt.Errorf("%w: geometry grid=%d block=%d outside [1,%d]x[1,%d]",
			ErrBadRequest, spec.Grid, spec.Block, s.cfg.MaxGrid, s.cfg.MaxBlock)
	}
	if spec.Grid*spec.Block > s.cfg.MaxLaunchThreads {
		return nil, fmt.Errorf("%w: %d threads exceeds the %d-thread launch cap",
			ErrBadRequest, spec.Grid*spec.Block, s.cfg.MaxLaunchThreads)
	}
	if len(spec.Args) != len(k.Params) {
		return nil, fmt.Errorf("%w: kernel %q takes %d args, got %d",
			ErrBadRequest, spec.Kernel, len(k.Params), len(spec.Args))
	}
	args := make([]driver.Arg, len(spec.Args))
	for i, a := range spec.Args {
		switch {
		case a.Buffer != "" && a.Scalar == nil:
			buf, err := sess.buffer(a.Buffer)
			if err != nil {
				return nil, err
			}
			args[i] = driver.BufArg(buf)
		case a.Buffer == "" && a.Scalar != nil:
			args[i] = driver.ScalarArg(*a.Scalar)
		default:
			return nil, fmt.Errorf("%w: arg %d must set exactly one of buffer/scalar", ErrBadRequest, i)
		}
	}
	return &launchReq{
		sess:     sess,
		spec:     spec,
		kernel:   k,
		args:     args,
		enqueued: time.Now(),
	}, nil
}

// Drain performs the graceful half of shutdown: admission starts shedding
// with ErrDraining, queued launches run to completion, and Drain returns once
// every granted launch has released its device. If ctx expires first, the remaining work is hard-aborted (in-flight
// simulations cancel, queued requests fail) and Drain reports it.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	graceful := s.awaitQuiet(ctx)
	if graceful {
		s.stop(ErrDraining)
	} else {
		s.stop(fmt.Errorf("%w: drain deadline passed, aborting in-flight work", ErrDraining))
	}
	if !graceful {
		return fmt.Errorf("drain cut short: %w", context.Cause(ctx))
	}
	return nil
}

// Close is the impatient Drain: admission stops, in-flight work aborts now,
// queued launches are refused, and Close returns once every granted launch
// has released its device.
func (s *Server) Close() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.stop(ErrDraining)
}

// awaitQuiet polls until every device queue is empty and nothing is
// in flight, or ctx expires. Polling (vs a condvar) keeps the hot acquire /
// release paths free of drain bookkeeping; shutdown can afford 2 ms ticks.
func (s *Server) awaitQuiet(ctx context.Context) bool {
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.quiet() {
			return true
		}
		select {
		case <-ctx.Done():
			return s.quiet()
		case <-tick.C:
		}
	}
}

func (s *Server) quiet() bool {
	if s.stats.inflight.Load() != 0 {
		return false
	}
	for _, d := range s.devs {
		if d.queueLen() != 0 {
			return false
		}
	}
	return true
}

func nextPow2(v uint64) uint64 {
	p := uint64(1)
	for p < v {
		p <<= 1
	}
	return p
}
