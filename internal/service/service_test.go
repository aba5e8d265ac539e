package service

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gpushield/internal/driver"
	"gpushield/internal/pool"
)

func launchFill(srv *Server, sid string, n int64) (*LaunchResult, error) {
	return srv.Launch(context.Background(), sid, LaunchSpec{
		Kernel: "fill", Grid: 1, Block: 64,
		Args: []ArgSpec{Buf("buf"), Scalar(n)},
	})
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAdmissionQuotas(t *testing.T) {
	cfg := testConfig()
	cfg.BufferBudget = 2
	cfg.ByteBudget = 8192
	cfg.TenantSessions = 2
	srv := newTestServer(t, cfg)

	// Buffer-count budget.
	s1 := mustSession(t, srv, "t1")
	mustMalloc(t, srv, s1.ID, "a", 64)
	mustMalloc(t, srv, s1.ID, "b", 64)
	if _, err := srv.Malloc(s1.ID, "c", 64, false); !errors.Is(err, ErrQuota) {
		t.Fatalf("3rd buffer: want ErrQuota, got %v", err)
	}
	if HTTPStatus(errors.New("x")) != http.StatusInternalServerError {
		t.Fatal("unknown errors must map to 500")
	}

	// Byte budget, charged at padded size: 5000 pads to 8192 = full budget.
	s2 := mustSession(t, srv, "t2")
	mustMalloc(t, srv, s2.ID, "big", 5000)
	if _, err := srv.Malloc(s2.ID, "one-more", 1, false); !errors.Is(err, ErrQuota) {
		t.Fatalf("over byte budget: want ErrQuota, got %v", err)
	}

	// Duplicate names and unknown handles are bad requests / not found.
	if _, err := srv.Malloc(s2.ID, "big", 1, false); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("duplicate name: want ErrBadRequest, got %v", err)
	}
	if _, err := srv.ReadBuffer(s2.ID, "ghost", 0, 4); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown buffer: want ErrNotFound, got %v", err)
	}
	if _, err := srv.Malloc("s_nonexistent", "x", 4, false); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown session: want ErrNotFound, got %v", err)
	}

	// Per-tenant session quota.
	mustSession(t, srv, "t3")
	mustSession(t, srv, "t3")
	if _, err := srv.CreateSession("t3"); !errors.Is(err, ErrQuota) {
		t.Fatalf("3rd session for tenant: want ErrQuota, got %v", err)
	}
	if got := HTTPStatus(ErrQuota); got != http.StatusTooManyRequests {
		t.Fatalf("ErrQuota must map to 429, got %d", got)
	}
}

// TestBufferCopyOffsetOverflow: WriteBuffer/ReadBuffer feed untrusted
// offsets straight to the driver; an offset near 2^64 must be rejected as a
// bad request, not wrap the driver's bounds check and land the copy in a
// neighboring tenant's memory.
func TestBufferCopyOffsetOverflow(t *testing.T) {
	srv := newTestServer(t, testConfig())
	s := mustSession(t, srv, "t")
	mustMalloc(t, srv, s.ID, "buf", 4096)

	huge := ^uint64(0) - 3 // offset + 4 wraps to 0
	if err := srv.WriteBuffer(s.ID, "buf", huge, []byte{1, 2, 3, 4}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("wrapping write offset: want ErrBadRequest, got %v", err)
	}
	if _, err := srv.ReadBuffer(s.ID, "buf", huge, 4); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("wrapping read offset: want ErrBadRequest, got %v", err)
	}
}

// TestMallocAfterCloseRefused: the device re-checks the session under its
// own lock, so an allocation racing CloseSession cannot strand an ownership
// record (and backing bytes) for a dead session.
func TestMallocAfterCloseRefused(t *testing.T) {
	srv := newTestServer(t, testConfig())
	s := mustSession(t, srv, "t")
	sess, err := srv.session(s.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.CloseSession(s.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.dev.malloc(sess, "late", 64, false); !errors.Is(err, ErrNotFound) {
		t.Fatalf("malloc on closed session: want ErrNotFound, got %v", err)
	}
	d := sess.dev
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, o := range d.owners {
		if o.session == sess.ID {
			t.Fatalf("closed session still owns %#x..%#x", o.base, o.end)
		}
	}
}

func TestCycleBudgetEnforcedByWatchdog(t *testing.T) {
	cfg := testConfig()
	cfg.CycleBudget = 20_000
	cfg.LaunchCycleCap = 1 << 30 // per-launch cap out of the way
	srv := newTestServer(t, cfg)

	s := mustSession(t, srv, "burner")
	mustMalloc(t, srv, s.ID, "buf", 4096)

	// A spin far beyond the budget: the watchdog must cut it at the
	// session's remaining cycles and report a partial, flagged result.
	res, err := srv.Launch(context.Background(), s.ID, LaunchSpec{
		Kernel: "spin", Grid: 1, Block: 64,
		Args: []ArgSpec{Buf("buf"), Scalar(1 << 40)},
	})
	if err != nil {
		t.Fatalf("budgeted spin: %v", err)
	}
	if !res.Watchdog || !res.Aborted {
		t.Fatalf("expected watchdog-aborted result, got %+v", res)
	}
	if res.CyclesLeft != 0 {
		t.Fatalf("budget not fully charged: %d cycles left", res.CyclesLeft)
	}

	// The next launch must be shed at admission: the tenant is out of gas.
	if _, err := launchFill(srv, s.ID, 8); !errors.Is(err, ErrQuota) {
		t.Fatalf("post-budget launch: want ErrQuota, got %v", err)
	}
	if snap := srv.Snapshot(); snap.WatchdogAborts == 0 {
		t.Fatalf("watchdog abort not counted: %+v", snap)
	}
}

func TestDeadlinePropagatesIntoRun(t *testing.T) {
	cfg := testConfig()
	cfg.LaunchCycleCap = 1 << 40
	cfg.CycleBudget = 1 << 40
	srv := newTestServer(t, cfg)

	s := mustSession(t, srv, "slow")
	mustMalloc(t, srv, s.ID, "buf", 4096)

	res, err := srv.Launch(context.Background(), s.ID, LaunchSpec{
		Kernel: "spin", Grid: 8, Block: 1024,
		Args:       []ArgSpec{Buf("buf"), Scalar(1 << 40)},
		DeadlineMS: 50,
	})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", err)
	}
	if HTTPStatus(err) != http.StatusGatewayTimeout {
		t.Fatalf("deadline must map to 504, got %d", HTTPStatus(err))
	}
	if res == nil || !res.Aborted {
		t.Fatalf("expected a partial aborted report alongside the error, got %+v", res)
	}
	if snap := srv.Snapshot(); snap.DeadlineAborts == 0 {
		t.Fatalf("deadline abort not counted: %+v", snap)
	}
}

// TestBoundedQueuesShedExplicitly pins the overload behaviour: with the
// worker deliberately blocked, the per-tenant bound sheds with ErrQuota
// (429) and the device-wide bound with ErrOverloaded (503), both carrying
// Retry-After hints — rather than queueing toward a timeout.
func TestBoundedQueuesShedExplicitly(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 3
	cfg.TenantQueueDepth = 2
	srv := newTestServer(t, cfg)

	sids := make(map[string]string)
	for _, tenant := range []string{"t0", "t1", "t2", "t3"} {
		info := mustSession(t, srv, tenant)
		mustMalloc(t, srv, info.ID, "buf", 4096)
		sids[tenant] = info.ID
	}
	d := srv.devs[0]

	// Block the worker: it will pop the first request and stall on mu.
	d.mu.Lock()
	workerReleased := false
	defer func() {
		if !workerReleased {
			d.mu.Unlock()
		}
	}()

	var wg sync.WaitGroup
	launchAsync := func(tenant string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := launchFill(srv, sids[tenant], 8); err != nil {
				t.Errorf("accepted launch for %s failed: %v", tenant, err)
			}
		}()
	}

	launchAsync("t0") // picked up by the worker, now stalled mid-execution
	waitFor(t, "worker to pick up t0", func() bool { return srv.stats.inflight.Load() == 1 })

	launchAsync("t1")
	waitFor(t, "t1 queued", func() bool { return d.queueLen() == 1 })
	launchAsync("t1")
	waitFor(t, "t1 #2 queued", func() bool { return d.queueLen() == 2 })

	// Third launch for t1: per-tenant bound.
	_, err := launchFill(srv, sids["t1"], 8)
	if !errors.Is(err, ErrQuota) {
		t.Fatalf("tenant queue overflow: want ErrQuota, got %v", err)
	}
	if RetryAfter(err) <= 0 {
		t.Fatalf("tenant shed missing Retry-After hint: %v", err)
	}

	launchAsync("t2")
	waitFor(t, "t2 queued", func() bool { return d.queueLen() == 3 })

	// Device queue now full: a different tenant is shed with 503.
	_, err = launchFill(srv, sids["t3"], 8)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("device queue overflow: want ErrOverloaded, got %v", err)
	}
	if RetryAfter(err) <= 0 {
		t.Fatalf("overload shed missing Retry-After hint: %v", err)
	}
	if HTTPStatus(err) != http.StatusServiceUnavailable {
		t.Fatalf("overload must map to 503, got %d", HTTPStatus(err))
	}

	workerReleased = true
	d.mu.Unlock()
	wg.Wait()

	snap := srv.Snapshot()
	if snap.ShedQuota == 0 || snap.ShedOverload == 0 {
		t.Fatalf("shed counters not incremented: %+v", snap)
	}
}

// TestRoundRobinAcrossTenants pins queue fairness: with tenant A three deep
// and tenant B one deep, execution interleaves A,B,A,A instead of draining
// A's backlog first.
func TestRoundRobinAcrossTenants(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 16
	cfg.TenantQueueDepth = 8
	srv := newTestServer(t, cfg)

	var (
		omu   sync.Mutex
		order []string
	)
	d := srv.devs[0]
	d.execHook = func(tenant string) {
		omu.Lock()
		order = append(order, tenant)
		omu.Unlock()
	}

	sa := mustSession(t, srv, "A")
	sb := mustSession(t, srv, "B")
	mustMalloc(t, srv, sa.ID, "buf", 4096)
	mustMalloc(t, srv, sb.ID, "buf", 4096)

	d.mu.Lock()
	var wg sync.WaitGroup
	launch := func(sid string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := launchFill(srv, sid, 8); err != nil {
				t.Errorf("launch: %v", err)
			}
		}()
	}
	launch(sa.ID) // popped immediately, worker stalls on mu
	waitFor(t, "worker busy", func() bool { return srv.stats.inflight.Load() == 1 })
	launch(sa.ID)
	waitFor(t, "A#2 queued", func() bool { return d.queueLen() == 1 })
	launch(sa.ID)
	waitFor(t, "A#3 queued", func() bool { return d.queueLen() == 2 })
	launch(sb.ID)
	waitFor(t, "B#1 queued", func() bool { return d.queueLen() == 3 })
	d.mu.Unlock()
	wg.Wait()

	want := "A,A,B,A"
	if got := strings.Join(order, ","); got != want {
		t.Fatalf("execution order %q, want %q (round-robin per tenant)", got, want)
	}
}

// TestPanicContainmentRebuildsGPU injects a panic into the launch path via
// the driver's fault hook: the request fails with a contained PanicError,
// the simulator is rebuilt, and the very next launch succeeds.
func TestPanicContainmentRebuildsGPU(t *testing.T) {
	srv := newTestServer(t, testConfig())
	s := mustSession(t, srv, "victim-of-bug")
	mustMalloc(t, srv, s.ID, "buf", 4096)

	d := srv.devs[0]
	armed := true
	d.mu.Lock()
	d.dev.SetLaunchMutator(func(l *driver.Launch) {
		if armed {
			armed = false
			panic("injected driver bug")
		}
	})
	d.mu.Unlock()

	_, err := launchFill(srv, s.ID, 8)
	if !errors.Is(err, pool.ErrRunPanic) {
		t.Fatalf("want contained ErrRunPanic, got %v", err)
	}
	if HTTPStatus(err) != http.StatusInternalServerError {
		t.Fatalf("panic must map to 500, got %d", HTTPStatus(err))
	}
	snap := srv.Snapshot()
	if snap.Panics != 1 || snap.GPURebuilds != 1 {
		t.Fatalf("panic/rebuild counters: %+v", snap)
	}

	// The daemon survives: same session keeps working on the rebuilt GPU.
	if _, err := launchFill(srv, s.ID, 8); err != nil {
		t.Fatalf("launch after contained panic: %v", err)
	}
}

func TestGracefulDrain(t *testing.T) {
	srv := newTestServer(t, testConfig())
	s := mustSession(t, srv, "t")
	mustMalloc(t, srv, s.ID, "buf", 4096)

	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Queued-then-drained work must complete, not error.
			if _, err := launchFill(srv, s.ID, 16); err != nil && !errors.Is(err, ErrDraining) {
				t.Errorf("inflight launch during drain: %v", err)
			}
		}()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("graceful drain: %v", err)
	}
	wg.Wait()

	// Admission now sheds with the draining class.
	if _, err := srv.CreateSession("late"); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain CreateSession: want ErrDraining, got %v", err)
	}
	if _, err := launchFill(srv, s.ID, 8); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain Launch: want ErrDraining, got %v", err)
	}
}

// TestForcedDrainAbortsInFlight: when the drain context expires with a
// launch still running, the launch is hard-aborted and Drain reports the
// cut, but every worker still exits. The abort is the server's doing, not
// the client's, so it must classify as draining (503), not canceled (499).
func TestForcedDrainAbortsInFlight(t *testing.T) {
	cfg := testConfig()
	cfg.LaunchCycleCap = 1 << 40
	cfg.CycleBudget = 1 << 40
	cfg.MaxDeadline = time.Minute
	cfg.DefaultDeadline = time.Minute
	srv := newTestServer(t, cfg)

	s := mustSession(t, srv, "t")
	mustMalloc(t, srv, s.ID, "buf", 1<<20)

	result := make(chan error, 1)
	go func() {
		_, err := srv.Launch(context.Background(), s.ID, LaunchSpec{
			Kernel: "spin", Grid: 8, Block: 1024,
			Args: []ArgSpec{Buf("buf"), Scalar(1 << 40)},
		})
		result <- err
	}()
	waitFor(t, "spin in flight", func() bool { return srv.stats.inflight.Load() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := srv.Drain(ctx); err == nil {
		t.Fatal("forced drain should report being cut short")
	}
	select {
	case err := <-result:
		if !errors.Is(err, ErrDraining) {
			t.Fatalf("server-aborted in-flight launch: want ErrDraining, got %v", err)
		}
		if got := HTTPStatus(err); got != 503 {
			t.Fatalf("server-aborted launch must map to 503, got %d", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight launch never returned after forced drain")
	}
}

// TestSessionCloseWhileQueued: closing a session with launches still queued
// fails those launches cleanly instead of running against freed state.
func TestSessionCloseWhileQueued(t *testing.T) {
	srv := newTestServer(t, testConfig())
	s := mustSession(t, srv, "t")
	mustMalloc(t, srv, s.ID, "buf", 4096)

	d := srv.devs[0]
	d.mu.Lock()
	first := make(chan error, 1)
	queued := make(chan error, 1)
	go func() {
		_, err := launchFill(srv, s.ID, 8)
		first <- err
	}()
	waitFor(t, "worker busy", func() bool { return srv.stats.inflight.Load() == 1 })
	go func() {
		_, err := launchFill(srv, s.ID, 8)
		queued <- err
	}()
	waitFor(t, "second queued", func() bool { return d.queueLen() == 1 })

	// Mark the session closed the way CloseSession does, while the worker is
	// still stalled — calling CloseSession here would deadlock on the d.mu
	// this test holds (releaseSession needs it).
	sess, err := srv.session(s.ID)
	if err != nil {
		t.Fatal(err)
	}
	sess.close()
	d.mu.Unlock()

	for _, ch := range []chan error{first, queued} {
		select {
		case err := <-ch:
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("launch against closed session: want ErrNotFound, got %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("launch against closed session wedged")
		}
	}
	// The full teardown path still works once the worker is free.
	if err := srv.CloseSession(s.ID); err != nil {
		t.Fatalf("CloseSession: %v", err)
	}
}

// TestDeviceRecycleWhenIdle: a device whose allocations passed the
// high-water mark is swapped for fresh hardware once its last session
// closes, so address space and backing stay bounded under churn.
func TestDeviceRecycleWhenIdle(t *testing.T) {
	cfg := testConfig()
	cfg.DeviceHighWater = 16 << 10
	srv := newTestServer(t, cfg)

	s := mustSession(t, srv, "churn")
	mustMalloc(t, srv, s.ID, "big", 32<<10)
	if err := srv.CloseSession(s.ID); err != nil {
		t.Fatal(err)
	}
	if snap := srv.Snapshot(); snap.DeviceRecycles != 1 {
		t.Fatalf("expected exactly one device recycle, got %+v", snap)
	}
	// Recycling still frees the old buffers' backing memory.
	d := srv.devs[0]
	d.mu.Lock()
	footprint := d.dev.Mem.FootprintBytes()
	d.mu.Unlock()
	if footprint != 0 {
		t.Fatalf("recycled device still holds %d bytes of backing memory", footprint)
	}
	// The pool keeps serving after the swap.
	s2 := mustSession(t, srv, "churn")
	mustMalloc(t, srv, s2.ID, "buf", 4096)
	if _, err := launchFill(srv, s2.ID, 8); err != nil {
		t.Fatalf("launch on recycled device: %v", err)
	}
}

// TestReusedHardwareAfterRecycleMatchesFresh recycles a dirty device and
// then runs the same session on it and on a new server whose first seed is
// the recycled device's second one. The recycle must reuse the simulator
// objects in place, and every launch result and read-back byte must match.
func TestReusedHardwareAfterRecycleMatchesFresh(t *testing.T) {
	cfg := testConfig()
	cfg.DeviceHighWater = 16 << 10
	srv := newTestServer(t, cfg)
	d := srv.devs[0]
	dev, gpu := d.dev, d.gpu

	s := mustSession(t, srv, "churn")
	mustMalloc(t, srv, s.ID, "buf", 32<<10)
	if _, err := srv.Launch(context.Background(), s.ID, LaunchSpec{
		Kernel: "fill", Grid: 8, Block: 256, Args: []ArgSpec{Buf("buf"), Scalar(3)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := srv.CloseSession(s.ID); err != nil {
		t.Fatal(err)
	}
	if snap := srv.Snapshot(); snap.DeviceRecycles != 1 {
		t.Fatalf("expected exactly one device recycle, got %+v", snap)
	}
	if d.dev != dev || d.gpu != gpu {
		t.Fatal("recycle rebuilt the device or GPU instead of resetting them in place")
	}

	freshCfg := testConfig()
	freshCfg.DeviceHighWater = cfg.DeviceHighWater
	freshCfg.Seed = cfg.Seed + 7_919 // the seed freshHardware gives generation 1
	fresh := newTestServer(t, freshCfg)

	drive := func(srv *Server) ([]LaunchResult, []byte) {
		s := mustSession(t, srv, "after")
		mustMalloc(t, srv, s.ID, "buf", 4096)
		if err := srv.WriteBuffer(s.ID, "buf", 0, sentinel(4096)); err != nil {
			t.Fatal(err)
		}
		var results []LaunchResult
		for _, grid := range []int{1, 8, 2} {
			res, err := srv.Launch(context.Background(), s.ID, LaunchSpec{
				Kernel: "fill", Grid: grid, Block: 256, Args: []ArgSpec{Buf("buf"), Scalar(int64(grid))},
			})
			if err != nil {
				t.Fatal(err)
			}
			res.QueueMS, res.RunMS = 0, 0
			results = append(results, *res)
		}
		data, err := srv.ReadBuffer(s.ID, "buf", 0, 4096)
		if err != nil {
			t.Fatal(err)
		}
		return results, data
	}
	gotRes, gotData := drive(srv)
	wantRes, wantData := drive(fresh)
	if !reflect.DeepEqual(gotRes, wantRes) {
		t.Fatalf("launch results on the recycled device differ from a fresh one:\n got %+v\nwant %+v", gotRes, wantRes)
	}
	if !bytes.Equal(gotData, wantData) {
		t.Fatal("buffer contents on the recycled device differ from a fresh one")
	}
}

func TestLaunchSpecValidation(t *testing.T) {
	srv := newTestServer(t, testConfig())
	s := mustSession(t, srv, "t")
	mustMalloc(t, srv, s.ID, "buf", 4096)

	cases := []LaunchSpec{
		{Kernel: "no-such-kernel", Grid: 1, Block: 32, Args: []ArgSpec{Buf("buf"), Scalar(1)}},
		{Kernel: "fill", Grid: 0, Block: 32, Args: []ArgSpec{Buf("buf"), Scalar(1)}},
		{Kernel: "fill", Grid: 1 << 20, Block: 32, Args: []ArgSpec{Buf("buf"), Scalar(1)}},
		{Kernel: "fill", Grid: 1, Block: 32, Args: []ArgSpec{Buf("buf")}},
		{Kernel: "fill", Grid: 1, Block: 32, Args: []ArgSpec{Buf("buf"), {}}},
		{Kernel: "fill", Grid: 1, Block: 32, Args: []ArgSpec{Scalar(1), Scalar(1)}},
		{Kernel: "fill", Grid: 1, Block: 32, Args: []ArgSpec{Buf("ghost"), Scalar(1)}},
	}
	for i, spec := range cases {
		_, err := srv.Launch(context.Background(), s.ID, spec)
		if !errors.Is(err, ErrBadRequest) && !errors.Is(err, ErrNotFound) {
			t.Errorf("case %d (%+v): want ErrBadRequest/ErrNotFound, got %v", i, spec, err)
		}
	}
}

// TestNewStartsNoGoroutine: launches run on their callers' goroutines, so a
// server at any pool size owns no goroutine of its own.
func TestNewStartsNoGoroutine(t *testing.T) {
	for _, devices := range []int{1, 3, 8} {
		cfg := testConfig()
		cfg.Devices = devices
		// A goroutine a previous test left behind may exit meanwhile, so
		// only growth counts, and growth in every attempt.
		grew := true
		for attempt := 0; attempt < 3 && grew; attempt++ {
			before := runtime.NumGoroutine()
			srv, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			grew = runtime.NumGoroutine() > before
			srv.Close()
		}
		if grew {
			t.Fatalf("New with %d devices started goroutines", devices)
		}
	}
}

// assertReleased checks that no launch holds any device once Close or Drain
// has returned, and that no device grants again.
func assertReleased(t *testing.T, srv *Server, sess *Session) {
	t.Helper()
	if n := srv.Snapshot().Inflight; n != 0 {
		t.Fatalf("%d launches still granted after stop returned", n)
	}
	for _, d := range srv.devs {
		for _, mu := range []*sync.Mutex{&d.mu, &d.qmu} {
			if !mu.TryLock() {
				t.Fatalf("device %d mutex still held after stop returned", d.id)
			}
			mu.Unlock()
		}
	}
	req := &launchReq{sess: sess}
	if err := sess.dev.acquire(req); !errors.Is(err, ErrDraining) {
		if err == nil && req.turn == nil {
			sess.dev.release() // or the test's own Close waits for it forever
		}
		t.Fatalf("acquire after stop: want ErrDraining, got %v", err)
	}
}

// TestCloseAndForcedDrainReleaseEveryGrant: Close and a forced Drain return
// only after the launch holding the device has aborted and released it.
func TestCloseAndForcedDrainReleaseEveryGrant(t *testing.T) {
	for _, how := range []string{"close", "drain"} {
		cfg := testConfig()
		cfg.LaunchCycleCap = 1 << 40
		cfg.CycleBudget = 1 << 40
		cfg.MaxDeadline = time.Minute
		cfg.DefaultDeadline = time.Minute
		srv := newTestServer(t, cfg)
		s := mustSession(t, srv, "t")
		mustMalloc(t, srv, s.ID, "buf", 1<<20)
		sess, err := srv.session(s.ID)
		if err != nil {
			t.Fatal(err)
		}

		result := make(chan error, 1)
		go func() {
			_, err := srv.Launch(context.Background(), s.ID, LaunchSpec{
				Kernel: "spin", Grid: 8, Block: 1024,
				Args: []ArgSpec{Buf("buf"), Scalar(1 << 40)},
			})
			result <- err
		}()
		waitFor(t, "spin in flight", func() bool { return srv.stats.inflight.Load() == 1 })
		if how == "close" {
			srv.Close()
		} else {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
			if err := srv.Drain(ctx); err == nil {
				t.Fatal("forced drain should report being cut short")
			}
			cancel()
		}
		assertReleased(t, srv, sess)
		if err := <-result; !errors.Is(err, ErrDraining) {
			t.Fatalf("%s: aborted launch: want ErrDraining, got %v", how, err)
		}
	}
}

// TestQueuedRefusedAtCloseCountsAsLaunch: a request still queued when the
// server stops is refused once, without running, and counts as one launch
// and one launch error, not as a shed.
func TestQueuedRefusedAtCloseCountsAsLaunch(t *testing.T) {
	srv := newTestServer(t, testConfig())
	s := mustSession(t, srv, "t")
	mustMalloc(t, srv, s.ID, "buf", 4096)
	d := srv.devs[0]

	d.mu.Lock()
	held := make(chan error, 1)
	queued := make(chan error, 1)
	go func() {
		_, err := launchFill(srv, s.ID, 8)
		held <- err
	}()
	waitFor(t, "device granted", func() bool { return srv.stats.inflight.Load() == 1 })
	go func() {
		_, err := launchFill(srv, s.ID, 8)
		queued <- err
	}()
	waitFor(t, "second queued", func() bool { return d.queueLen() == 1 })

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case err := <-queued:
		if !errors.Is(err, ErrDraining) || !strings.Contains(err.Error(), "server stopping") {
			d.mu.Unlock()
			t.Fatalf("queued launch at stop: want the ErrDraining refusal, got %v", err)
		}
	case <-time.After(10 * time.Second):
		d.mu.Unlock()
		t.Fatal("queued launch was not refused while the device was held")
	}
	snap := srv.Snapshot()
	if snap.Launches != 1 || snap.LaunchErrors != 1 || snap.ShedDraining != 0 || snap.Queued != 0 {
		d.mu.Unlock()
		t.Fatalf("refused launch counted as %+v, want 1 launch, 1 launch error, no shed", snap)
	}
	select {
	case <-closed:
		d.mu.Unlock()
		t.Fatal("Close returned while a granted launch still held the device")
	default:
	}
	d.mu.Unlock()
	<-closed
	// The stop's cancellation may or may not reach a run this short.
	if err := <-held; err != nil && !errors.Is(err, ErrDraining) {
		t.Fatalf("granted launch at stop: want success or ErrDraining, got %v", err)
	}
	if snap := srv.Snapshot(); snap.Launches != 2 || snap.Inflight != 0 {
		t.Fatalf("after Close: %+v", snap)
	}
}

// TestPanicHandsDeviceToQueued: a granted launch that panics still releases
// the device, to the request queued behind it.
func TestPanicHandsDeviceToQueued(t *testing.T) {
	srv := newTestServer(t, testConfig())
	s := mustSession(t, srv, "t")
	mustMalloc(t, srv, s.ID, "buf", 4096)
	d := srv.devs[0]
	armPanic(d, "injected driver bug")

	d.mu.Lock()
	first := make(chan error, 1)
	second := make(chan error, 1)
	go func() {
		_, err := launchFill(srv, s.ID, 8)
		first <- err
	}()
	waitFor(t, "device granted", func() bool { return srv.stats.inflight.Load() == 1 })
	go func() {
		_, err := launchFill(srv, s.ID, 8)
		second <- err
	}()
	waitFor(t, "second queued", func() bool { return d.queueLen() == 1 })
	d.mu.Unlock()

	for i, want := range []error{pool.ErrRunPanic, nil} {
		select {
		case err := <-[]chan error{first, second}[i]:
			if !errors.Is(err, want) || (want == nil) != (err == nil) {
				t.Fatalf("launch %d: want %v, got %v", i, want, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("launch %d never finished: the panicking launch did not hand the device over", i)
		}
	}
	if snap := srv.Snapshot(); snap.Inflight != 0 || snap.Panics != 1 {
		t.Fatalf("after the hand-off: %+v", snap)
	}
}
