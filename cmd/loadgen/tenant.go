package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"gpushield/internal/randsrc"
	"gpushield/internal/service"
)

// tenantResult is one tenant goroutine's tally, merged into the report.
type tenantResult struct {
	launches          int
	latencies         []float64 // milliseconds per completed launch
	shed429           int
	shed503           int
	retrySleeps       int
	sessionRecycles   int
	deadlineAborts    int
	watchdogAborts    int
	violationLaunches int
	errors            int
	corruptions       int
	lastErr           string
}

// tenant drives one workload loop until ctx expires: benign tenants run real
// compute and verify every result byte-for-byte (the corruption detector);
// malicious tenants aim out-of-bounds kernels at the rest of the device.
type tenant struct {
	id        int
	name      string
	malicious bool
	cli       *client
	rng       *rand.Rand
	res       tenantResult

	sessionID string
	elems     int
}

func newTenant(id int, malicious bool, base string, transport *http.Transport, seed int64) *tenant {
	kind := "benign"
	if malicious {
		kind = "mal"
	}
	return &tenant{
		id:        id,
		name:      fmt.Sprintf("%s-%04d", kind, id),
		malicious: malicious,
		cli: &client{
			base: base,
			http: &http.Client{Transport: transport, Timeout: 30 * time.Second},
		},
		rng:   rand.New(randsrc.New(seed + int64(id))),
		elems: 256,
	}
}

// run is the goroutine body. It always returns a result, whatever the server
// did; a tenant that cannot even get a session reports errors rather than
// aborting the campaign. (Named result: the deferred teardown runs after the
// return value is set, so it must write through the name.)
func (t *tenant) run(ctx context.Context) (res tenantResult) {
	defer func() {
		t.res.retrySleeps = t.cli.retrySleeps
		res = t.res
		if t.sessionID != "" {
			// Best-effort teardown with a fresh context: ctx is likely done.
			clean, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = t.cli.do(clean, "DELETE", "/v1/sessions/"+t.sessionID, nil, nil)
		}
	}()
	for ctx.Err() == nil {
		if t.sessionID == "" {
			if !t.setup(ctx) {
				continue
			}
		}
		if t.malicious {
			t.attackOnce(ctx)
		} else {
			t.computeOnce(ctx)
		}
	}
	return t.res
}

// setup creates a session and its buffers, retrying through shed responses.
// Returns false (after noting the error) when the attempt failed and the loop
// should re-check ctx before trying again.
func (t *tenant) setup(ctx context.Context) bool {
	var info service.SessionInfo
	if err := t.cli.doRetry(ctx, "POST", "/v1/sessions", map[string]string{"tenant": t.name}, &info, 8); err != nil {
		t.noteError(err)
		t.pause(ctx)
		return false
	}
	t.sessionID = info.ID
	base := "/v1/sessions/" + t.sessionID

	type bufSpec struct {
		name string
		size int
	}
	var bufs []bufSpec
	if t.malicious {
		bufs = []bufSpec{{"a", 1024}}
	} else {
		bufs = []bufSpec{{"x", t.elems * 4}, {"y", t.elems * 4}, {"z", t.elems * 4}}
	}
	for _, b := range bufs {
		if err := t.cli.doRetry(ctx, "POST", base+"/buffers",
			map[string]any{"name": b.name, "size": b.size}, nil, 4); err != nil {
			t.noteError(err)
			t.dropSession(ctx)
			return false
		}
	}
	if !t.malicious {
		// Seed x and y with patterns derived from the tenant ID so every
		// tenant's expected output is unique — a cross-tenant stray write
		// cannot be masked by two tenants happening to share data.
		xs := make([]byte, t.elems*4)
		ys := make([]byte, t.elems*4)
		for i := 0; i < t.elems; i++ {
			binary.LittleEndian.PutUint32(xs[i*4:], uint32(t.id*1000+i))
			binary.LittleEndian.PutUint32(ys[i*4:], uint32(2*i+1))
		}
		for name, data := range map[string][]byte{"x": xs, "y": ys} {
			if err := t.cli.doRetry(ctx, "POST", base+"/buffers/"+name+"/write",
				map[string]any{"offset": 0, "data": data}, nil, 4); err != nil {
				t.noteError(err)
				t.dropSession(ctx)
				return false
			}
		}
	}
	return true
}

// computeOnce runs one benign vecadd and verifies the full output vector.
func (t *tenant) computeOnce(ctx context.Context) {
	base := "/v1/sessions/" + t.sessionID
	res, ok := t.launch(ctx, service.LaunchSpec{
		Kernel: "vecadd", Grid: 1, Block: t.elems,
		Args: []service.ArgSpec{
			service.Buf("x"), service.Buf("y"), service.Buf("z"), service.Scalar(int64(t.elems)),
		},
	})
	if !ok {
		return
	}
	if res.Violations > 0 {
		// A benign in-bounds kernel must never trip the BCU.
		t.res.corruptions++
		t.res.lastErr = "benign launch reported violations"
		return
	}
	var read struct {
		Data []byte `json:"data"`
	}
	if err := t.cli.doRetry(ctx, "POST", base+"/buffers/z/read",
		map[string]any{"offset": 0, "n": t.elems * 4}, &read, 4); err != nil {
		t.noteError(err)
		return
	}
	for i := 0; i < t.elems; i++ {
		want := uint32(t.id*1000+i) + uint32(2*i+1)
		if got := binary.LittleEndian.Uint32(read.Data[i*4:]); got != want {
			t.res.corruptions++
			t.res.lastErr = fmt.Sprintf("z[%d] = %d, want %d", i, got, want)
			return
		}
	}
}

// attackOnce aims one hostile kernel at the shared device: a striding
// overflow sweep, a pointed store at a pseudo-random far offset, or a
// cycle-burning spin that rides the watchdog cap — the overload arm that
// drives real queue pressure and burns the session's cycle budget.
func (t *tenant) attackOnce(ctx context.Context) {
	var spec service.LaunchSpec
	switch t.rng.Intn(3) {
	case 0:
		spec = service.LaunchSpec{
			Kernel: "fill", Grid: 8, Block: 256,
			Args: []service.ArgSpec{service.Buf("a"), service.Scalar(1 << 20)},
		}
	case 1:
		idx := int64(256 + t.rng.Intn(1<<20))
		spec = service.LaunchSpec{
			Kernel: "oob-store", Grid: 1, Block: 32,
			Args: []service.ArgSpec{service.Buf("a"), service.Scalar(idx)},
		}
	default:
		// Mixed intensity: short burns up to full watchdog-cap rides.
		iters := int64(1) << (12 + t.rng.Intn(10))
		spec = service.LaunchSpec{
			Kernel: "spin", Grid: 2, Block: 128,
			Args: []service.ArgSpec{service.Buf("a"), service.Scalar(iters)},
		}
	}
	res, ok := t.launch(ctx, spec)
	if ok && res.Violations > 0 {
		t.res.violationLaunches++
	}
	if ok && res.Watchdog {
		t.res.watchdogAborts++
	}
}

// launch posts one launch, classifying the outcome into the tally. ok is true
// when a LaunchResult (complete or partial) came back.
func (t *tenant) launch(ctx context.Context, spec service.LaunchSpec) (*service.LaunchResult, bool) {
	start := time.Now()
	var res service.LaunchResult
	err := t.cli.doRetry(ctx, "POST", "/v1/sessions/"+t.sessionID+"/launch", spec, &res, 6)
	if err == nil {
		t.res.launches++
		t.res.latencies = append(t.res.latencies, float64(time.Since(start).Microseconds())/1000)
		return &res, true
	}
	var ae *apiError
	if !errors.As(err, &ae) {
		t.noteError(err)
		return nil, false
	}
	switch ae.Status {
	case http.StatusTooManyRequests:
		t.res.shed429++
		if ae.RetryAfter == 0 {
			// Budget-class rejection: this session's cycles are spent.
			// Recycle the session — churn the daemon is built to absorb.
			t.dropSession(ctx)
			t.res.sessionRecycles++
		}
	case http.StatusServiceUnavailable:
		t.res.shed503++
		t.pause(ctx)
	case http.StatusGatewayTimeout:
		t.res.deadlineAborts++
	case http.StatusNotFound:
		// Session vanished (e.g. server-side teardown): start over.
		t.sessionID = ""
	default:
		t.noteError(ae)
	}
	return nil, false
}

func (t *tenant) dropSession(ctx context.Context) {
	if t.sessionID != "" {
		_ = t.cli.do(ctx, "DELETE", "/v1/sessions/"+t.sessionID, nil, nil)
		t.sessionID = ""
	}
}

func (t *tenant) noteError(err error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return // campaign shutdown, not a failure
	}
	t.res.errors++
	t.res.lastErr = err.Error()
}

// pause backs off briefly with jitter so 1000 shed tenants do not return in
// lockstep.
func (t *tenant) pause(ctx context.Context) {
	d := 20*time.Millisecond + time.Duration(t.rng.Intn(80))*time.Millisecond
	select {
	case <-ctx.Done():
	case <-time.After(d):
	}
}
