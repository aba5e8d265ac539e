package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gpushield/internal/service"
)

const (
	// serveOpenRate is the offered rate of the open-loop phase, in
	// operations per second over all connections. It sits well below the
	// closed-loop capacity (~4k launches/s, ~8k operations/s, on 2 vCPUs),
	// so the phase measures latency, not overload.
	serveOpenRate = 1500.0
	// The run repeats a closed-loop slice then an open-loop slice until the
	// measurement time is used, so both phases sample the host over the
	// whole run rather than one of its halves. A closed slice holds an even
	// number of throughput windows, so a traced run can alternate them.
	serveClosedSlice = time.Second
	serveOpenSlice   = 1500 * time.Millisecond
	// serveWindow is the closed-loop throughput window.
	serveWindow = 250 * time.Millisecond

	// The traffic is cmd/loadgen's campaign: benign tenants run a 256-
	// element vecadd at grid 1 and verify every output byte; one tenant in
	// five is hostile (loadgen's -malicious-frac default, 0.2) and aims
	// loadgen's fill and oob-store attacks at a 1 KiB buffer. loadgen's
	// third attack, spin, is left out: it reports no violation to check
	// and rides the 256 Ki-cycle launch cap, which would make simulator
	// time, not the service, the measured cost.
	tenantsPerWorker = 5
	loadgenElems     = 256
	blockSize        = 256
	hostileBytes     = 1024
	// Not from loadgen, which has one launch size: half the benign tenants
	// use a second grid size, 1024 elements at grid 4.
	largeElems = 1024
	// Not from loadgen either, which recycles a session only when its
	// cycle budget runs out. At a few hundred cycles per launch the
	// default 4 Mi-cycle budget would last ~12k launches per session,
	// longer than a run, so sessions are recycled once an eighth of the
	// budget is spent; that keeps session set-up (and the input writes
	// loadgen makes there) in both phases' mix.
	churnShare = 8
)

// opKind is one kind of client operation.
type opKind int

const (
	opLaunch  opKind = iota // benign vecadd
	opRead                  // read back and byte-verify a benign output
	opHostile               // out-of-bounds oob-store or fill; must be detected
	opSession               // close a session and open a fresh one, inputs written
)

var opNames = [...]string{"launch", "read", "hostile", "session"}

// tenant is one session a worker drives.
type tenant struct {
	id         int
	name       string
	session    string
	elems      int
	hostile    bool
	gen        uint32
	x, y       []uint32
	want       []byte // expected output after the last benign launch
	cyclesLeft uint64
	budget     uint64 // cycles_left when the session opened
}

// fillX derives the x input from the tenant and its session generation, so
// no two tenants expect the same output and a stray write cannot hide.
func (t *tenant) fillX() {
	for i := range t.x {
		t.x[i] = uint32(t.id)*1_000_003 + t.gen*7919 + uint32(i)
	}
}

// expect records the output vecadd must produce from the current inputs.
func (t *tenant) expect() {
	t.want = make([]byte, 4*t.elems)
	for i := range t.x {
		binary.LittleEndian.PutUint32(t.want[4*i:], t.x[i]+t.y[i])
	}
}

type apiClient struct {
	base string
	hc   *http.Client
}

// call performs one JSON round trip; any non-2xx status is an error.
func (c *apiClient) call(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		b, _ := io.ReadAll(resp.Body) // diagnostic text only
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// opResult is one completed operation.
type opResult struct {
	kind     opKind
	due      time.Time // open loop: when the operation was scheduled
	start    time.Time
	end      time.Time
	requests int
	writes   []float64 // ms of each buffer write the operation made
	fail     string
	launch   *service.LaunchResult
}

// worker is one client connection's operation stream. Each worker owns
// its tenants, so its stream is deterministic given the seed.
type worker struct {
	id      int
	cli     *apiClient
	rng     *rand.Rand
	tenants []*tenant // two small benign, two large benign, one hostile
	readOf  *tenant   // benign tenant whose output the next op verifies
}

func newWorker(id int, cli *apiClient, seed int64) *worker {
	w := &worker{id: id, cli: cli, rng: rand.New(rand.NewSource(seed*131 + int64(id)))}
	for i, elems := range []int{loadgenElems, loadgenElems, largeElems, largeElems} {
		t := &tenant{id: id*tenantsPerWorker + i, name: fmt.Sprintf("w%d-benign%d", id, i), elems: elems,
			x: make([]uint32, elems), y: make([]uint32, elems)}
		for j := range t.y {
			t.y[j] = uint32(2*j + 1)
		}
		w.tenants = append(w.tenants, t)
	}
	w.tenants = append(w.tenants, &tenant{id: id*tenantsPerWorker + len(w.tenants),
		name: fmt.Sprintf("w%d-hostile", id), hostile: true})
	return w
}

// openSession creates t's session and its buffers and, for a benign
// tenant, writes both inputs, as a loadgen tenant's set-up does. It
// returns the number of requests made and the time of each write (ms).
func (w *worker) openSession(ctx context.Context, t *tenant) (int, []float64, error) {
	var info service.SessionInfo
	if err := w.cli.call(ctx, "POST", "/v1/sessions", map[string]string{"tenant": t.name}, &info); err != nil {
		return 1, nil, fmt.Errorf("create session: %w", err)
	}
	t.session, t.cyclesLeft, t.budget = info.ID, info.CyclesLeft, info.CyclesLeft
	n := 1
	type buf struct {
		name string
		size int
	}
	bufs := []buf{{"a", hostileBytes}}
	if !t.hostile {
		bufs = []buf{{"x", 4 * t.elems}, {"y", 4 * t.elems}, {"z", 4 * t.elems}}
	}
	for _, b := range bufs {
		n++
		if err := w.cli.call(ctx, "POST", "/v1/sessions/"+t.session+"/buffers",
			map[string]any{"name": b.name, "size": b.size}, nil); err != nil {
			return n, nil, fmt.Errorf("malloc %s: %w", b.name, err)
		}
	}
	if t.hostile {
		return n, nil, nil
	}
	t.gen++
	t.fillX()
	var writes []float64
	for _, b := range []struct {
		name string
		v    []uint32
	}{{"x", t.x}, {"y", t.y}} {
		n++
		start := time.Now()
		if err := w.write(ctx, t, b.name, b.v); err != nil {
			return n, writes, err
		}
		writes = append(writes, msSince(start))
	}
	return n, writes, nil
}

func (w *worker) write(ctx context.Context, t *tenant, name string, v []uint32) error {
	data := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(data[4*i:], x)
	}
	if err := w.cli.call(ctx, "POST", "/v1/sessions/"+t.session+"/buffers/"+name+"/write",
		map[string]any{"offset": 0, "data": data}, nil); err != nil {
		return fmt.Errorf("write %s: %w", name, err)
	}
	return nil
}

// pick chooses the next operation from the seeded mix. Every tenant is
// equally likely to act next, as loadgen's concurrent tenant loops are;
// after a benign launch comes its read-back, and a tenant that has spent
// its share of cycles is recycled before it launches again.
func (w *worker) pick() (opKind, *tenant) {
	if t := w.readOf; t != nil {
		w.readOf = nil
		return opRead, t
	}
	t := w.tenants[w.rng.Intn(len(w.tenants))]
	if t.cyclesLeft < t.budget-t.budget/churnShare {
		return opSession, t
	}
	if t.hostile {
		return opHostile, t
	}
	return opLaunch, t
}

// do runs the next operation of the stream and checks its outcome.
func (w *worker) do(ctx context.Context) opResult {
	kind, t := w.pick()
	r := opResult{kind: kind, start: time.Now(), requests: 1}
	var err error
	switch kind {
	case opLaunch:
		r.launch, err = w.launch(ctx, t, service.LaunchSpec{Kernel: "vecadd", Grid: t.elems / blockSize, Block: blockSize,
			Args: []service.ArgSpec{service.Buf("x"), service.Buf("y"), service.Buf("z"), service.Scalar(int64(t.elems))}})
		if err == nil {
			switch {
			case r.launch.Violations > 0:
				err = fmt.Errorf("benign launch reported %d violations", r.launch.Violations)
			case r.launch.Aborted || r.launch.Watchdog:
				err = fmt.Errorf("benign launch aborted: %s", r.launch.AbortMsg)
			}
			t.expect()
			w.readOf = t
		}
	case opRead:
		var out struct {
			Data []byte `json:"data"`
		}
		err = w.cli.call(ctx, "POST", "/v1/sessions/"+t.session+"/buffers/z/read",
			map[string]any{"offset": 0, "n": 4 * t.elems}, &out)
		if err == nil {
			err = checkReadBack(out.Data, t.want)
		}
	case opHostile:
		// loadgen's attacks: a striding overflow sweep 8x past the buffer,
		// or a pointed store at a pseudo-random far offset.
		spec := service.LaunchSpec{Kernel: "fill", Grid: 8, Block: blockSize,
			Args: []service.ArgSpec{service.Buf("a"), service.Scalar(1 << 20)}}
		if w.rng.Intn(2) == 0 {
			spec = service.LaunchSpec{Kernel: "oob-store", Grid: 1, Block: 32,
				Args: []service.ArgSpec{service.Buf("a"), service.Scalar(int64(hostileBytes/4 + w.rng.Intn(1<<20)))}}
		}
		r.launch, err = w.launch(ctx, t, spec)
		if err == nil && r.launch.Violations == 0 {
			err = fmt.Errorf("hostile %s launch went undetected", spec.Kernel)
		}
	case opSession:
		err = w.cli.call(ctx, "DELETE", "/v1/sessions/"+t.session, nil, nil)
		if err == nil {
			var n int
			n, r.writes, err = w.openSession(ctx, t)
			r.requests += n
		}
	}
	r.end = time.Now()
	if err != nil {
		r.fail = fmt.Sprintf("serve worker %d %s %s: %v", w.id, opNames[kind], t.name, err)
	}
	return r
}

func (w *worker) launch(ctx context.Context, t *tenant, spec service.LaunchSpec) (*service.LaunchResult, error) {
	var res service.LaunchResult
	if err := w.cli.call(ctx, "POST", "/v1/sessions/"+t.session+"/launch", spec, &res); err != nil {
		return nil, err
	}
	t.cyclesLeft = res.CyclesLeft
	return &res, nil
}

// checkReadBack compares a read-back output with the expected bytes.
func checkReadBack(got, want []byte) error {
	if len(got) != len(want) {
		return fmt.Errorf("read %d bytes, want %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d corrupted read-back bytes", bad)
	}
	return nil
}

// serveEnv is one booted server with its populated workers.
type serveEnv struct {
	srv       *service.Server
	hs        *http.Server
	served    chan error
	transport *http.Transport
	workers   []*worker
}

// bootServe starts service.New with the default config behind
// service.NewHandler on a loopback port, waits until /healthz answers, and
// opens every worker's sessions.
func bootServe(ctx context.Context, seed int64, workers int) (*serveEnv, error) {
	cfg := service.DefaultConfig()
	cfg.Seed = seed
	srv, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	e := &serveEnv{
		srv:       srv,
		hs:        &http.Server{Handler: service.NewHandler(srv)},
		served:    make(chan error, 1),
		transport: &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers, DisableCompression: true},
	}
	go func() { e.served <- e.hs.Serve(ln) }()
	cli := &apiClient{base: "http://" + ln.Addr().String(), hc: &http.Client{Transport: e.transport, Timeout: 30 * time.Second}}
	if err := waitReady(ctx, cli); err != nil {
		e.stop()
		return nil, err
	}
	for i := 0; i < workers; i++ {
		w := newWorker(i, cli, seed)
		for _, t := range w.tenants {
			if _, _, err := w.openSession(ctx, t); err != nil {
				e.stop()
				return nil, fmt.Errorf("worker %d: %w", i, err)
			}
		}
		e.workers = append(e.workers, w)
	}
	return e, nil
}

// waitReady polls /healthz until the server answers 200.
func waitReady(ctx context.Context, cli *apiClient) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := cli.call(ctx, "GET", "/healthz", nil, nil)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			return fmt.Errorf("server not ready: %w", err)
		}
		runtime.Gosched()
	}
}

// stop shuts the HTTP server down, drains the service and waits for both.
func (e *serveEnv) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.hs.Shutdown(ctx) // on timeout the drain below still stops every worker
	_ = e.srv.Drain(ctx)   // a drain past its deadline hard-stops, which is all teardown needs
	<-e.served
	e.transport.CloseIdleConnections()
}

// waitUntil blocks the calling thread in nanosleep until due. The Go
// runtime's timers round sub-millisecond waits up to a millisecond when
// the process is otherwise idle, which would make the open-loop generator
// itself late by up to that much; the kernel's high-resolution sleep wakes
// within tens of microseconds.
func waitUntil(due time.Time) {
	for d := time.Until(due); d > 0; d = time.Until(due) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR wakes early; the loop sleeps again
	}
}

// tally is what one worker measured in one phase. Operations are folded in
// as they complete, so the client's memory stays flat however long the
// run is.
type tally struct {
	ops      int
	requests int
	failures []string // one per failed operation
	// windows counts the launches completed without failure in each
	// closed-loop throughput window.
	windows []int
	// Open loop: launch latency from when it was due, generator lateness
	// of every operation, and each operation's request time by kind (ms).
	lat      []float64
	late     []float64
	svc      [len(opNames)][]float64
	writes   []float64 // each buffer write inside a session operation
	queue    []float64 // LaunchResult.QueueMS
	run      []float64 // LaunchResult.RunMS
	overhead []float64 // request time minus queue and run
	checks   uint64
	launches int
}

func (t *tally) note(r opResult, open bool, window int) {
	t.ops++
	t.requests += r.requests
	isLaunch := r.kind == opLaunch || r.kind == opHostile
	if r.fail != "" {
		t.failures = append(t.failures, r.fail)
	}
	if !open {
		if isLaunch && r.fail == "" && window >= 0 && window < len(t.windows) {
			t.windows[window]++
		}
		return
	}
	t.late = append(t.late, float64(r.start.Sub(r.due))/1e6)
	svc := float64(r.end.Sub(r.start)) / 1e6
	t.svc[r.kind] = append(t.svc[r.kind], svc)
	t.writes = append(t.writes, r.writes...)
	if !isLaunch {
		return
	}
	if r.fail != "" {
		t.lat = append(t.lat, failedLatency)
		return
	}
	t.lat = append(t.lat, float64(r.end.Sub(r.due))/1e6)
	if r.launch != nil {
		t.queue = append(t.queue, r.launch.QueueMS)
		t.run = append(t.run, r.launch.RunMS)
		t.overhead = append(t.overhead, svc-r.launch.QueueMS-r.launch.RunMS)
		t.checks += r.launch.Checks
		t.launches++
	}
}

// merge folds o into t. Throughput windows add up index by index, so
// either both or neither carry them.
func (t *tally) merge(o *tally) {
	t.ops += o.ops
	t.requests += o.requests
	t.failures = append(t.failures, o.failures...)
	for i := range o.windows {
		t.windows[i] += o.windows[i]
	}
	t.lat = append(t.lat, o.lat...)
	t.late = append(t.late, o.late...)
	for k := range o.svc {
		t.svc[k] = append(t.svc[k], o.svc[k]...)
	}
	t.writes = append(t.writes, o.writes...)
	t.queue = append(t.queue, o.queue...)
	t.run = append(t.run, o.run...)
	t.overhead = append(t.overhead, o.overhead...)
	t.checks += o.checks
	t.launches += o.launches
}

// phase runs every worker for d. With rate 0 it is a closed loop: each
// worker sends its next operation when the previous one returns, and
// launches are counted per serveWindow. Otherwise it is an open loop:
// operation i of the merged schedule is due at i/rate, worker w serves the
// operations with i mod workers = w, and latency runs from the due time.
// traceOn decides, from the window an operation starts in, whether it is
// recorded as a span.
func phase(ctx context.Context, e *serveEnv, d time.Duration, rate float64, tr *tracer, traceOn func(window int) bool, opBase *atomic.Int64) *tally {
	start := time.Now()
	stop := start.Add(d)
	nWin := 0
	if rate == 0 {
		nWin = int(d / serveWindow)
	}
	tallies := make([]*tally, len(e.workers))
	var wg sync.WaitGroup
	for i, w := range e.workers {
		tallies[i] = &tally{windows: make([]int, nWin)}
		wg.Add(1)
		go func(i int, w *worker, t *tally) {
			defer wg.Done()
			for k := 0; ctx.Err() == nil; k++ {
				var due time.Time
				if rate > 0 {
					due = start.Add(time.Duration(float64(k*len(e.workers)+i) / rate * float64(time.Second)))
					if !due.Before(stop) {
						return
					}
					waitUntil(due)
				} else if !time.Now().Before(stop) {
					return
				}
				r := w.do(ctx)
				r.due = due
				if traceOn(int(r.start.Sub(start) / serveWindow)) {
					tr.add("service."+opNames[r.kind], r.start, r.end, -1, opBase.Add(1))
				}
				t.note(r, rate > 0, int(r.end.Sub(start)/serveWindow))
			}
		}(i, w, tallies[i])
	}
	wg.Wait()
	for _, t := range tallies[1:] {
		tallies[0].merge(t)
	}
	return tallies[0]
}

func runServe(ctx context.Context, cfg runConfig, g *gate, rep *report) (Result, error) {
	e, err := bootServe(ctx, cfg.seed, cfg.workers)
	if err != nil {
		return Result{}, fmt.Errorf("set-up: %w", err)
	}
	defer e.stop()
	if cfg.probe {
		return probeResult(), nil
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	steal0 := stealTicks()
	snap0 := e.srv.Snapshot()
	var opBase atomic.Int64
	// A freshly booted server answers its first second of traffic slower
	// than the rest, so the run starts with one checked but untimed
	// closed-loop slice.
	warm := phase(ctx, e, serveClosedSlice, 0, nil, func(int) bool { return false }, &opBase)
	resetPeakRSS()

	// The traced run traces every other closed-loop window, so the two
	// throughputs it compares see the same host conditions; it traces the
	// whole open loop.
	closedTraced := func(w int) bool { return cfg.trace && w%2 == 1 }
	openTraced := func(int) bool { return cfg.trace }
	closed, open := &tally{}, &tally{}
	var windows []int
	// sliceTail is each open-loop slice's 0.90 quantile of launch request
	// time, sent to answered. p90_ms is their median, so one slice that met
	// a host stall does not set it. The same quantiles of latency from the
	// due time (sliceDueTail, sliceP99) are reported alongside: they measure
	// the host's stalls more than the service (see tailQ).
	var sliceTail, sliceDueTail, sliceP99 []float64
	var openAlloc, openPause uint64
	// peak is the peak resident set over the slices; the reference rounds
	// between them restart the kernel's mark, so it is read before each.
	var peak float64
	slices := 0
	for start := time.Now(); ctx.Err() == nil && (slices == 0 || time.Since(start) < cfg.seconds); slices++ {
		sliceStart := time.Now()
		sl := phase(ctx, e, serveClosedSlice, 0, tr, closedTraced, &opBase)
		windows = append(windows, sl.windows...)
		sl.windows = nil
		closed.merge(sl)

		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		sl = phase(ctx, e, serveOpenSlice, serveOpenRate, tr, openTraced, &opBase)
		sliceTail = append(sliceTail, quantile(append(sl.svc[opLaunch], sl.svc[opHostile]...), tailQ))
		sliceDueTail = append(sliceDueTail, quantile(sl.lat, tailQ))
		sliceP99 = append(sliceP99, quantile(sl.lat, 0.99))
		open.merge(sl)
		runtime.ReadMemStats(&ms1)
		openAlloc += ms1.TotalAlloc - ms0.TotalAlloc
		openPause += ms1.PauseTotalNs - ms0.PauseTotalNs
		peak = max(peak, peakRSSMB())
		cfg.cal.owe(time.Since(sliceStart))
	}
	snap1 := e.srv.Snapshot()
	steal := stealTicks() - steal0
	if ctx.Err() != nil {
		return Result{}, ctx.Err()
	}

	var tputU, tputT []float64
	for w, n := range windows {
		v := float64(n) / serveWindow.Seconds()
		if cfg.trace && w%2 == 1 {
			tputT = append(tputT, v)
		} else {
			tputU = append(tputU, v)
		}
	}
	attempted := warm.ops + closed.ops + open.ops
	failures := append(append(warm.failures, closed.failures...), open.failures...)
	failed := len(failures)
	// Every launch error the server counts (panics included) is a failed
	// launch; the client normally saw the same launches fail.
	if srvErrs := int(snap1.LaunchErrors - snap0.LaunchErrors); srvErrs > 0 || snap1.Panics != snap0.Panics {
		failures = append(failures, fmt.Sprintf("server counted %d launch errors and %d panics",
			srvErrs, snap1.Panics-snap0.Panics))
		failed = max(failed, srvErrs, 1)
	}
	sheds := (snap1.ShedQuota + snap1.ShedOverload + snap1.ShedDraining) - (snap0.ShedQuota + snap0.ShedOverload + snap0.ShedDraining)
	openOps := len(open.late)

	rep.printf("serve: %d workers over keep-alive loopback connections, seed %d, default service config", cfg.workers, cfg.seed)
	rep.printf("serve: %d operations, %d HTTP requests (%d operations in the untimed first slice)", attempted, warm.requests+closed.requests+open.requests, warm.ops)
	rep.printf("serve: %d cycles of a %v closed-loop slice (%d windows of %v in all) and a %v open-loop slice at %.0f ops/s (%d ops, %d launches)",
		slices, serveClosedSlice, len(windows), serveWindow, serveOpenSlice, serveOpenRate, openOps, len(open.lat))
	launches := snap1.Launches - snap0.Launches
	rep.printf("serve: server launches %d (%.0f cycles each), violations %d, oob launches %d, cross-tenant blocked %d, sheds %d, sessions created %d",
		launches, ratio(float64(snap1.Cycles-snap0.Cycles), float64(launches)), snap1.Violations-snap0.Violations,
		snap1.OOBLaunches-snap0.OOBLaunches, snap1.CrossTenant-snap0.CrossTenant, sheds, snap1.SessionsCreated-snap0.SessionsCreated)
	rep.printf("serve: generator lateness p50 %.3f ms p90 %.3f ms p99 %.3f ms", median(open.late), quantile(open.late, 0.9), quantile(open.late, 0.99))
	for k, v := range open.svc {
		rep.printf("serve: open-loop %-7s n=%6d p50 %.3f ms p99 %.3f ms", opNames[k], len(v), median(v), quantile(v, 0.99))
	}
	rep.printf("serve: open-loop writes  n=%6d p50 %.3f ms (inside session operations)", len(open.writes), median(open.writes))
	rep.printf("serve: steal ticks during the run: %d", steal)

	if !cfg.trace {
		ms := newMetricSet(endToEndUnits)
		ms.set("peak_rss_mb", max(peak, peakRSSMB()))
		ms.set("throughput_per_s", median(tputU))
		ms.set("p50_ms", median(open.lat))
		ms.set("p90_ms", median(sliceTail))
		rep.printf("serve: throughput median of %d windows; p50 over %d open-loop launches from their due time; p90_ms the median of %d slices' 0.90 quantiles of launch request time",
			len(tputU), len(open.lat), len(sliceTail))
		rep.printf("serve: latency from the due time: 0.90 quantile median of slices %.3f ms; 0.99 quantile median of slices %.3f ms, pooled %.3f ms",
			median(sliceDueTail), median(sliceP99), quantile(open.lat, 0.99))
		return finish(rep, attempted, failed, failures, ms.complete(), cfg.steal(steal)), nil
	}

	ms := newMetricSet(perLayerUnits)
	ms.set("service.launch_ms", median(append(append([]float64(nil), open.svc[opLaunch]...), open.svc[opHostile]...)))
	ms.set("service.queue_ms", median(open.queue))
	ms.set("service.run_ms", median(open.run))
	ms.set("service.overhead_ms", median(open.overhead))
	ms.set("service.write_ms", median(open.writes))
	ms.set("service.read_ms", median(open.svc[opRead]))
	ms.set("service.session_ms", median(open.svc[opSession]))
	ms.set("service.sheds", float64(sheds))
	ms.set("generator.late_ms", quantile(open.late, 0.99))
	ms.set("host.alloc_kb_per_op", ratio(float64(openAlloc)/1024, float64(openOps)))
	ms.set("host.gc_pause_ms", ratio(float64(openPause)/1e6, float64(openOps)))
	ms.set("core.checks", ratio(float64(open.checks), float64(open.launches)))
	// Every open-loop operation is a root span, so the spans cover the
	// summed request time of the open loop.
	var openBusy float64
	for _, v := range open.svc {
		for _, ms := range v {
			openBusy += ms
		}
	}
	openWall := float64(slices) * serveOpenSlice.Seconds() * 1e3
	ms.set("trace.span_coverage", ratio(openBusy, openWall*float64(cfg.workers)))
	ms.set("trace.overhead", ratio(median(tputU), median(tputT))-1)
	summarize(tr.snapshot()).printLayers(rep, time.Duration(slices)*(serveClosedSlice+serveOpenSlice), cfg.workers)
	if err := cfg.writeTrace(tr); err != nil {
		return Result{}, err
	}
	return finish(rep, attempted, failed, failures, ms.complete(), cfg.steal(steal)), nil
}
