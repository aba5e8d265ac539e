// Chaos suite for the fleet: every test runs a real coordinator against
// real worker *processes* (this test binary re-exec'd, gated in TestMain)
// and asserts the one property the package exists for — campaigns end
// complete, with results bit-identical to a serial reference, no matter
// which process dies at which instruction.
package fleet_test

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"gpushield/internal/fleet"
	"gpushield/internal/resultstore"
	"gpushield/internal/sim"
)

// Env knobs for the re-exec'd worker harness. The stall sentinel makes the
// stall one-shot across the fleet (respawned replacements behave normally);
// the unconditional stall-after makes *every* worker defect, which is how
// the MaxAttempts budget gets exercised.
const (
	envWorker        = "GPUSHIELD_FLEET_TEST_WORKER"
	envExecDelay     = "GPUSHIELD_FLEET_TEST_EXEC_DELAY_MS"
	envStallSentinel = "GPUSHIELD_FLEET_TEST_STALL_SENTINEL"
	envStallAfter    = "GPUSHIELD_FLEET_TEST_STALL_AFTER"
	envTruncateOnce  = "GPUSHIELD_FLEET_TEST_TRUNCATE_ONCE"
	envDuplicate     = "GPUSHIELD_FLEET_TEST_DUPLICATE"
)

func TestMain(m *testing.M) {
	if os.Getenv(envWorker) == "1" {
		os.Exit(workerHarness())
	}
	os.Exit(m.Run())
}

// workerHarness is the re-exec'd worker process: the production fleet.Worker
// loop around the synthetic executor, with failure hooks decoded from env.
func workerHarness() int {
	hooks := &fleet.Hooks{
		TruncateOncePath: os.Getenv(envTruncateOnce),
		DuplicateResults: os.Getenv(envDuplicate) != "",
	}
	if v := os.Getenv(envStallAfter); v != "" {
		hooks.StallAfterResults, _ = strconv.Atoi(v)
	}
	if p := os.Getenv(envStallSentinel); p != "" {
		// One-shot: exactly one worker process across the fleet's lifetime
		// (including respawns) claims the sentinel and goes silent.
		if f, err := os.OpenFile(p, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644); err == nil {
			f.Close()
			hooks.StallAfterResults = 1
		}
	}
	err := fleet.Worker(context.Background(), os.Stdin, os.Stdout, testExec, hooks)
	if err != nil {
		fmt.Fprintf(os.Stderr, "worker harness: %v\n", err)
		return 1
	}
	return 0
}

// testExec is the synthetic executor: stats are a pure function of the key
// (the determinism contract in miniature), an optional delay widens the
// window for mid-shard kills, and "fail-" benchmarks fail deterministically.
func testExec(ctx context.Context, key resultstore.Key) (*sim.LaunchStats, time.Duration, error) {
	if v := os.Getenv(envExecDelay); v != "" {
		ms, _ := strconv.Atoi(v)
		select {
		case <-time.After(time.Duration(ms) * time.Millisecond):
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		}
	}
	if strings.HasPrefix(key.Bench, "fail-") {
		return nil, time.Millisecond, fmt.Errorf("deterministic failure for %s", key.Bench)
	}
	return synthStats(key), time.Millisecond, nil
}

// synthStats derives bit-exact stats from the key alone.
func synthStats(key resultstore.Key) *sim.LaunchStats {
	h := fnv.New64a()
	io.WriteString(h, key.Hash())
	v := h.Sum64()
	return &sim.LaunchStats{
		Kernel:      key.Bench,
		Mode:        "fleet-test",
		FinishCycle: v % 1_000_000,
		WarpInstrs:  v,
		MemInstrs:   v % 77_777,
		Checks:      v % 1_000,
		RL1Hits:     v % 900,
	}
}

func mkKey(i int) resultstore.Key {
	return resultstore.Key{Bench: fmt.Sprintf("job-%03d", i), Scale: 1, Seed: int64(i), SimVersion: sim.Version}
}

// startFleet builds a coordinator whose workers are this test binary.
func startFleet(t *testing.T, cfg fleet.Config, env ...string) *fleet.Coordinator {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Argv = []string{exe}
	cfg.Env = append([]string{envWorker + "=1"}, env...)
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	c, err := fleet.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// runAll launches one Run goroutine per key and collects results by index.
func runAll(ctx context.Context, c *fleet.Coordinator, keys []resultstore.Key) ([]*sim.LaunchStats, []error) {
	stats := make([]*sim.LaunchStats, len(keys))
	errs := make([]error, len(keys))
	var wg sync.WaitGroup
	for i, k := range keys {
		wg.Add(1)
		go func(i int, k resultstore.Key) {
			defer wg.Done()
			stats[i], _, errs[i] = c.Run(ctx, k)
		}(i, k)
	}
	wg.Wait()
	return stats, errs
}

// checkCampaign asserts every job completed with exactly the serial
// reference result — the byte-identical-merge contract.
func checkCampaign(t *testing.T, keys []resultstore.Key, stats []*sim.LaunchStats, errs []error) {
	t.Helper()
	for i, k := range keys {
		if errs[i] != nil {
			t.Fatalf("job %s: %v", k.Bench, errs[i])
		}
		if want := synthStats(k); !reflect.DeepEqual(stats[i], want) {
			t.Fatalf("job %s: result diverged from serial reference\n got %+v\nwant %+v", k.Bench, stats[i], want)
		}
	}
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func keysN(n int) []resultstore.Key {
	keys := make([]resultstore.Key, n)
	for i := range keys {
		keys[i] = mkKey(i)
	}
	return keys
}

// TestFleetCompletesAndMatchesSerial is the no-fault baseline: many jobs,
// several workers, results indistinguishable from serial execution.
func TestFleetCompletesAndMatchesSerial(t *testing.T) {
	c := startFleet(t, fleet.Config{Workers: 3, ShardSize: 4, Heartbeat: 30 * time.Millisecond})
	keys := keysN(20)
	stats, errs := runAll(context.Background(), c, keys)
	checkCampaign(t, keys, stats, errs)
	if s := c.Stats(); s.Results != len(keys) {
		t.Fatalf("results = %d, want %d (stats %+v)", s.Results, len(keys), s)
	}
}

// TestRunDeduplicatesWaiters: concurrent Run calls for one key share one
// execution and one result.
func TestRunDeduplicatesWaiters(t *testing.T) {
	c := startFleet(t, fleet.Config{Workers: 2, Heartbeat: 30 * time.Millisecond})
	key := mkKey(7)
	keys := make([]resultstore.Key, 8)
	for i := range keys {
		keys[i] = key
	}
	stats, errs := runAll(context.Background(), c, keys)
	checkCampaign(t, keys, stats, errs)
	if s := c.Stats(); s.Results != 1 {
		t.Fatalf("one key executed %d times, want 1", s.Results)
	}
}

// TestDeterministicFailureIsAResult: an exec error is delivered and stored
// like any result — not retried, not a worker death.
func TestDeterministicFailureIsAResult(t *testing.T) {
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := startFleet(t, fleet.Config{Workers: 1, Heartbeat: 30 * time.Millisecond, Store: store})
	key := resultstore.Key{Bench: "fail-alpha", Scale: 1, SimVersion: sim.Version}
	_, _, runErr := c.Run(context.Background(), key)
	if runErr == nil || !strings.Contains(runErr.Error(), "deterministic failure") {
		t.Fatalf("err = %v, want the worker's deterministic failure", runErr)
	}
	ent, ok := store.Get(key)
	if !ok || ent.Err == "" {
		t.Fatalf("failure not persisted as a store entry (ok=%v ent=%+v)", ok, ent)
	}
	if s := c.Stats(); s.WorkerDeaths != 0 || s.Requeues != 0 {
		t.Fatalf("deterministic failure caused fault handling: %+v", s)
	}
}

// TestKillMinus9MidShard: SIGKILL a worker while it holds a lease. The
// campaign must still complete, byte-identical, via reassignment.
func TestKillMinus9MidShard(t *testing.T) {
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := startFleet(t, fleet.Config{
		Workers: 2, ShardSize: 4, Heartbeat: 25 * time.Millisecond, Store: store,
	}, envExecDelay+"=40")
	keys := keysN(12)

	done := make(chan struct{})
	var stats []*sim.LaunchStats
	var errs []error
	go func() {
		defer close(done)
		stats, errs = runAll(context.Background(), c, keys)
	}()

	// Kill a worker only once it demonstrably holds work (a result landed),
	// so the SIGKILL lands mid-shard, not before leasing.
	waitFor(t, 10*time.Second, "first result", func() bool { return c.Stats().Results >= 1 })
	pids := c.WorkerPIDs()
	if len(pids) == 0 {
		t.Fatal("no live workers to kill")
	}
	if err := syscall.Kill(pids[0], syscall.SIGKILL); err != nil {
		t.Fatalf("kill -9 %d: %v", pids[0], err)
	}

	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("campaign hung after kill -9 (stats %+v)", c.Stats())
	}
	checkCampaign(t, keys, stats, errs)
	s := c.Stats()
	if s.WorkerDeaths < 1 || s.Respawns < 1 {
		t.Fatalf("kill -9 not observed as a worker death + respawn: %+v", s)
	}
	if n, err := store.Len(); err != nil || n != len(keys) {
		t.Fatalf("store holds %d entries (err %v), want %d", n, err, len(keys))
	}
}

// TestStalledWorkerLeaseExpires: the only worker delivers a result, then
// goes silent without dying — the missed-heartbeat failure. The campaign
// can only finish if the lease expires, the wedged worker is killed, and a
// respawned replacement (which finds the stall sentinel claimed) takes over.
func TestStalledWorkerLeaseExpires(t *testing.T) {
	sentinel := filepath.Join(t.TempDir(), "stall")
	c := startFleet(t, fleet.Config{
		Workers: 1, ShardSize: 4, Heartbeat: 20 * time.Millisecond, Lease: 80 * time.Millisecond,
	}, envStallSentinel+"="+sentinel)
	keys := keysN(10)
	stats, errs := runAll(context.Background(), c, keys)
	checkCampaign(t, keys, stats, errs)
	s := c.Stats()
	if s.LeaseExpiries < 1 || s.WorkerDeaths < 1 || s.Respawns < 1 {
		t.Fatalf("stalled worker was not expired+killed+replaced: %+v", s)
	}
}

// TestTruncatedStreamMidRecord: a worker dies after writing half a result
// line with no newline. The fragment must be dropped unambiguously — no
// protocol error, no lost earlier results — and the job re-executed.
func TestTruncatedStreamMidRecord(t *testing.T) {
	sentinel := filepath.Join(t.TempDir(), "truncate")
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := startFleet(t, fleet.Config{
		Workers: 2, ShardSize: 4, Heartbeat: 25 * time.Millisecond, Store: store,
	}, envTruncateOnce+"="+sentinel)
	keys := keysN(10)
	stats, errs := runAll(context.Background(), c, keys)
	checkCampaign(t, keys, stats, errs)
	s := c.Stats()
	if s.WorkerDeaths < 1 {
		t.Fatalf("truncating worker not observed dying: %+v", s)
	}
	if s.ProtocolErrors != 0 {
		t.Fatalf("torn trailing fragment surfaced as a protocol error: %+v", s)
	}
	if n, err := store.Len(); err != nil || n != len(keys) {
		t.Fatalf("store holds %d entries (err %v), want %d", n, err, len(keys))
	}
}

// TestDuplicateDeliveryAbsorbed: every worker double-sends every result.
// The idempotent store and exactly-once futures must absorb all of it.
func TestDuplicateDeliveryAbsorbed(t *testing.T) {
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := startFleet(t, fleet.Config{
		Workers: 2, ShardSize: 3, Heartbeat: 30 * time.Millisecond, Store: store,
	}, envDuplicate+"=1")
	keys := keysN(10)
	stats, errs := runAll(context.Background(), c, keys)
	checkCampaign(t, keys, stats, errs)
	// The last future completes on the first copy of the last result; its
	// duplicate may still be in the worker pipe, so wait for it to be read.
	waitFor(t, 10*time.Second, "every duplicate delivery", func() bool {
		return c.Stats().DupDeliveries >= len(keys)
	})
	s := c.Stats()
	if s.DupDeliveries < len(keys) {
		t.Fatalf("double delivery not observed: %+v", s)
	}
	if s.Results != len(keys) {
		t.Fatalf("futures completed %d times, want exactly %d: %+v", s.Results, len(keys), s)
	}
	if n, err := store.Len(); err != nil || n != len(keys) {
		t.Fatalf("store holds %d entries (err %v), want %d", n, err, len(keys))
	}
}

// TestCoordinatorKilledMidMergeLosesNothing: tear the coordinator down with
// a campaign in flight, then finish the campaign with a fresh coordinator
// over the same store — replaying durable entries, re-executing only what
// was never delivered, ending bit-identical to the serial reference.
func TestCoordinatorKilledMidMergeLosesNothing(t *testing.T) {
	dir := t.TempDir()
	store, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := keysN(14)

	c1 := startFleet(t, fleet.Config{
		Workers: 2, ShardSize: 3, Heartbeat: 25 * time.Millisecond, Store: store,
	}, envExecDelay+"=30")
	go runAll(context.Background(), c1, keys)
	waitFor(t, 10*time.Second, "partial progress", func() bool { return c1.Stats().Results >= 3 })
	c1.Close() // the "kill": in-flight waiters fail, durable state survives

	// A fresh store handle proves we replay from disk, not memory.
	store2, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	durable := 0
	for _, k := range keys {
		if _, ok := store2.Get(k); ok {
			durable++
		}
	}
	if durable == 0 {
		t.Fatal("no entries were durable at coordinator death despite completed results")
	}

	c2 := startFleet(t, fleet.Config{
		Workers: 2, ShardSize: 3, Heartbeat: 25 * time.Millisecond, Store: store2,
	})
	// The engine's warm-sweep discipline: consult the store, execute misses.
	final := make([]*sim.LaunchStats, len(keys))
	reexecuted := 0
	for i, k := range keys {
		if ent, ok := store2.Get(k); ok {
			final[i] = ent.Stats
			continue
		}
		reexecuted++
		st, _, err := c2.Run(context.Background(), k)
		if err != nil {
			t.Fatalf("resume run %s: %v", k.Bench, err)
		}
		final[i] = st
	}
	if reexecuted > len(keys)-durable {
		t.Fatalf("re-executed %d jobs, but %d were already durable", reexecuted, durable)
	}
	for i, k := range keys {
		if want := synthStats(k); !reflect.DeepEqual(final[i], want) {
			t.Fatalf("job %s: resumed result diverged from serial reference", k.Bench)
		}
	}
}

// TestLeaseBudgetExhaustion: every worker (respawns included) defects after
// one delivery, so some job eventually burns MaxAttempts leases and must
// fail loudly — with backoff between reassignments, not a hot loop.
func TestLeaseBudgetExhaustion(t *testing.T) {
	c := startFleet(t, fleet.Config{
		Workers: 1, ShardSize: 4, Heartbeat: 15 * time.Millisecond, Lease: 60 * time.Millisecond,
		MaxAttempts: 2, Backoff: 10 * time.Millisecond, BackoffCap: 50 * time.Millisecond,
	}, envStallAfter+"=1")
	keys := keysN(6)
	_, errs := runAll(context.Background(), c, keys)
	failed := 0
	for _, err := range errs {
		if err != nil {
			if !strings.Contains(err.Error(), "lease attempts") {
				t.Fatalf("unexpected failure shape: %v", err)
			}
			failed++
		}
	}
	if failed == 0 {
		t.Fatalf("no job exhausted its lease budget under universal worker defection: %+v", c.Stats())
	}
	if s := c.Stats(); s.FailedJobs != failed || s.LeaseExpiries < 1 {
		t.Fatalf("stats disagree with observed failures (%d): %+v", failed, s)
	}
}

// TestRunCanceledWaiter: a canceled waiter gets ctx.Err() promptly and the
// coordinator stays healthy for other callers.
func TestRunCanceledWaiter(t *testing.T) {
	c := startFleet(t, fleet.Config{Workers: 1, Heartbeat: 30 * time.Millisecond}, envExecDelay+"=200")
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, _, err := c.Run(ctx, mkKey(0))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The fleet is still serviceable afterwards.
	st, _, err := c.Run(context.Background(), mkKey(1))
	if err != nil || !reflect.DeepEqual(st, synthStats(mkKey(1))) {
		t.Fatalf("fleet unhealthy after canceled waiter: %v", err)
	}
}
