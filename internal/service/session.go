package service

import (
	"fmt"
	"sync"

	"gpushield/internal/driver"
)

// Session is one tenant's handle onto the service: an isolated set of
// buffers inside its device's shared address space, plus the budget
// counters admission control charges against. A session is sticky to one
// device so that cross-tenant adjacency — and therefore the isolation claim
// the BCU enforces — is real, not an artifact of separate address spaces.
//
// Lock order: Session.mu is a leaf under device.mu — methods here never
// acquire another lock, and callers must never hold Session.mu while
// acquiring device.mu.
type Session struct {
	ID     string
	Tenant string

	dev *device

	mu         sync.Mutex
	closed     bool
	buffers    map[string]*driver.Buffer
	bufBytes   uint64 // padded bytes resident
	cyclesLeft uint64

	// Per-session telemetry, reported in TenantStats.
	launches    uint64
	violations  uint64
	oobLaunches uint64
	crossTenant uint64
	watchdogs   uint64
}

func (s *Session) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

func (s *Session) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// reserveBuffer charges the name, count, and byte quotas up front, before
// any device lock is taken; commitBuffer fills the slot in afterwards. The
// nil placeholder keeps concurrent Mallocs of the same name from
// double-charging.
func (s *Session) reserveBuffer(name string, padded uint64, cfg Config) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("%w: session closed", ErrNotFound)
	}
	if _, dup := s.buffers[name]; dup {
		return fmt.Errorf("%w: buffer %q already exists", ErrBadRequest, name)
	}
	if len(s.buffers) >= cfg.BufferBudget {
		return fmt.Errorf("%w: buffer budget (%d) exhausted", ErrQuota, cfg.BufferBudget)
	}
	if s.bufBytes+padded > cfg.ByteBudget {
		return fmt.Errorf("%w: byte budget exhausted (%d resident + %d requested > %d)",
			ErrQuota, s.bufBytes, padded, cfg.ByteBudget)
	}
	s.buffers[name] = nil
	s.bufBytes += padded
	return nil
}

// unreserveBuffer rolls a reservation back when the device-side allocation
// was refused (session closed mid-Malloc).
func (s *Session) unreserveBuffer(name string, padded uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.buffers, name)
	s.bufBytes -= padded
}

func (s *Session) commitBuffer(name string, b *driver.Buffer, cfg Config) (bytesLeft uint64, buffersLeft int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buffers[name] = b
	return cfg.ByteBudget - s.bufBytes, cfg.BufferBudget - len(s.buffers)
}

func (s *Session) buffer(name string) (*driver.Buffer, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("%w: session closed", ErrNotFound)
	}
	b := s.buffers[name]
	if b == nil {
		return nil, fmt.Errorf("%w: buffer %q", ErrNotFound, name)
	}
	return b, nil
}

func (s *Session) cyclesRemaining() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cyclesLeft
}

// takeCycleBudget returns how many cycles the next launch may burn:
// min(per-launch cap, the session's remainder). Zero means the tenant is
// out of budget. Nothing is deducted here — chargeCycles deducts what the
// run actually consumed (launches on one session are serialized by its
// device's grant, so there is no double-spend window).
func (s *Session) takeCycleBudget(launchCap uint64) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cyclesLeft < launchCap {
		return s.cyclesLeft
	}
	return launchCap
}

func (s *Session) chargeCycles(n uint64) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n > s.cyclesLeft {
		s.cyclesLeft = 0
	} else {
		s.cyclesLeft -= n
	}
	return s.cyclesLeft
}

// noteLaunch folds one launch outcome into the session's telemetry.
func (s *Session) noteLaunch(res *LaunchResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.launches++
	s.violations += uint64(res.Violations)
	if res.Violations > 0 {
		s.oobLaunches++
	}
	s.crossTenant += uint64(res.CrossTenant)
	if res.Watchdog {
		s.watchdogs++
	}
}

// TenantStats is a session's telemetry snapshot (wire form).
type TenantStats struct {
	Session     string `json:"session"`
	Tenant      string `json:"tenant"`
	Device      int    `json:"device"`
	Launches    uint64 `json:"launches"`
	Violations  uint64 `json:"violations"`
	OOBLaunches uint64 `json:"oob_launches"`
	CrossTenant uint64 `json:"cross_tenant_blocked"`
	Watchdogs   uint64 `json:"watchdog_aborts"`
	CyclesLeft  uint64 `json:"cycles_left"`
	Buffers     int    `json:"buffers"`
	Bytes       uint64 `json:"resident_bytes"`
}

func (s *Session) snapshot() TenantStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, b := range s.buffers {
		if b != nil {
			n++
		}
	}
	return TenantStats{
		Session: s.ID, Tenant: s.Tenant, Device: s.dev.id,
		Launches: s.launches, Violations: s.violations, OOBLaunches: s.oobLaunches,
		CrossTenant: s.crossTenant, Watchdogs: s.watchdogs,
		CyclesLeft: s.cyclesLeft, Buffers: n, Bytes: s.bufBytes,
	}
}
