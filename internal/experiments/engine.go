package experiments

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"

	"gpushield/internal/core"
	"gpushield/internal/driver"
	"gpushield/internal/pool"
	"gpushield/internal/resultstore"
	"gpushield/internal/sim"
	"gpushield/internal/workloads"
)

// Job is one declarative unit of work for the engine: run Bench under Opts.
// Fig/table/ablation runners build a []Job up front and consume the results
// by index, so table rows come out in the same order the old serial loops
// produced them no matter how the jobs were scheduled.
type Job struct {
	Bench workloads.Benchmark
	Opts  RunOpts
}

// memoKey identifies a benchmark run up to simulation determinism: two runs
// with equal keys produce bit-identical LaunchStats, so the engine computes
// the result once and serves copies. Benchmarks are keyed by name (names
// are unique across the corpus, including unregistered variants like
// streamcluster-tiny).
type memoKey struct {
	bench      string
	arch       string
	mode       driver.Mode
	bcu        core.BCUConfig
	scale      int
	seed       int64
	trackPages bool
}

func (o RunOpts) memoKey(bench string) memoKey {
	scale := o.Scale
	if scale <= 0 {
		scale = 1
	}
	return memoKey{
		bench:      bench,
		arch:       o.Arch,
		mode:       o.Mode,
		bcu:        o.BCU,
		scale:      scale,
		seed:       o.effectiveSeed(),
		trackPages: o.TrackPages,
	}
}

// memoEntry is one cached run. The first requester computes under once;
// every requester (including the first) receives a deep copy, so cached
// stats can never be mutated through a caller's hands.
type memoEntry struct {
	once sync.Once
	st   *sim.LaunchStats
	err  error
	dur  time.Duration
}

// QuarantineEntry records a run that kept failing through every retry and
// was set aside. Quarantined runs are never silently dropped: the footer
// lists them and the -json report carries them.
type QuarantineEntry struct {
	Bench    string `json:"bench"`
	Mode     string `json:"mode"`
	Attempts int    `json:"attempts"`
	Err      string `json:"err"`
}

// EngineStats is the engine's cumulative accounting, surfaced in the
// `-run all` footer and the `-json` timing output.
type EngineStats struct {
	Jobs           int     `json:"jobs"`            // runs requested through the engine
	UniqueRuns     int     `json:"unique_runs"`     // simulations actually executed (locally or by a fleet worker)
	CacheHits      int     `json:"cache_hits"`      // requests served from the memo cache
	StoreHits      int     `json:"store_hits"`      // configs served from the content-addressed result store
	Bespoke        int     `json:"bespoke"`         // ForEachErr jobs: not keyable, so never cached, stored, or journaled
	Retries        int     `json:"retries"`         // re-attempts after a failed execution
	Quarantined    int     `json:"quarantined"`     // runs that exhausted their retries
	Replayed       int     `json:"replayed"`        // memo entries primed from a resume journal
	ComputeSeconds float64 `json:"compute_seconds"` // Σ executed-run wall-clock
	SerialSeconds  float64 `json:"serial_seconds"`  // Σ wall-clock every request would have paid serially
}

// Default retry policy: one re-attempt after a deterministic pause. The
// backoff doubles per attempt (base << attempt) — deterministic so a rerun
// of a flaky sweep behaves identically, no jitter.
const (
	defaultRetries      = 1
	defaultRetryBackoff = 25 * time.Millisecond
)

// Engine executes benchmark runs across a bounded worker pool with a
// process-wide memoization cache. Determinism contract: results are
// delivered by job index and each simulation builds private device/GPU
// state, so for any worker count the rendered tables are byte-identical to
// the serial (workers = 1) path.
//
// The engine is the run-lifecycle layer: each unique run is executed with
// panic containment (a panicking run becomes that run's error, matching
// pool.ErrRunPanic), retried under the deterministic backoff policy,
// quarantined if it keeps failing, journaled (when a Journal is attached)
// before its result is reported, and dropped from the memo cache if it was
// canceled so a later attempt under a live context can re-execute it.
type Engine struct {
	mu           sync.Mutex
	workers      int
	coreParallel int // requested core-stepping width; 0 = auto (serial)
	memo         map[memoKey]*memoEntry
	journal      *Journal
	store        *resultstore.Store // durable content-addressed layer under the memo cache
	remote       RemoteFunc         // fleet coordinator hook; nil = compute locally

	retries int
	backoff time.Duration

	jobs       int
	uniqueRuns int
	bespoke    int
	retryCount int
	replayed   int
	storeHits  int
	storeErr   error // first store write failure (sticky, like journal errors)
	quarantine []QuarantineEntry
	compute    time.Duration
	serial     time.Duration
}

// NewEngine builds an engine; workers <= 0 selects one worker per CPU.
func NewEngine(workers int) *Engine {
	return &Engine{
		workers: pool.Normalize(workers),
		memo:    map[memoKey]*memoEntry{},
		retries: defaultRetries,
		backoff: defaultRetryBackoff,
	}
}

// SetWorkers resizes the pool for subsequent run sets (<= 0 = per-CPU).
func (e *Engine) SetWorkers(n int) {
	e.mu.Lock()
	e.workers = pool.Normalize(n)
	e.mu.Unlock()
}

// Workers reports the current pool width.
func (e *Engine) Workers() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.workers
}

// SetCoreParallelism records the requested per-simulation core-stepping
// width (0 or 1 = serial). The effective width is resolved against the
// shared machine budget by CoreParallelism.
func (e *Engine) SetCoreParallelism(n int) {
	e.mu.Lock()
	e.coreParallel = n
	e.mu.Unlock()
}

// CoreParallelism resolves the core-stepping width each simulation runs at.
// 0 (auto) resolves to 1: core-parallel stepping has never beaten serial
// stepping (ROADMAP item 5), so a narrowed job pool does not turn it on. An explicit width above 1 is capped by the machine budget
// that the engine's job workers and each simulation's core workers share:
// Workers() × width never exceeds pool.DefaultWorkers(), so a wide sweep
// cannot oversubscribe the host by also fanning every GPU out.
func (e *Engine) CoreParallelism() int {
	e.mu.Lock()
	req, workers := e.coreParallel, e.workers
	e.mu.Unlock()
	if req <= 1 {
		return 1
	}
	return max(1, min(req, pool.DefaultWorkers()/workers))
}

// SetJournal attaches (or detaches, with nil) the write-ahead journal.
// Every subsequently executed unique run is appended before its result is
// returned to the requester.
func (e *Engine) SetJournal(j *Journal) {
	e.mu.Lock()
	e.journal = j
	e.mu.Unlock()
}

// SetStore attaches (or detaches, with nil) the content-addressed result
// store. On every memo miss the engine consults the store before computing
// (the run hash is computed exactly once per unique config — memo hits
// never hash), and every executed run is stored durably before its result
// is reported. Store write failures are sticky warnings (StoreErr), never
// run failures: losing durability must not lose the sweep.
func (e *Engine) SetStore(s *resultstore.Store) {
	e.mu.Lock()
	e.store = s
	e.mu.Unlock()
}

// SetRemote attaches (or detaches, with nil) the remote execution hook —
// the fleet coordinator in coordinator mode. Runs whose benchmark resolves
// in a fresh process (CanExecuteRemotely) are leased out; test-local
// benchmarks fall back to the local compute path.
func (e *Engine) SetRemote(fn RemoteFunc) {
	e.mu.Lock()
	e.remote = fn
	e.mu.Unlock()
}

// StoreErr reports the first result-store write failure, if any: results
// completed after it may not be durable for future warm runs.
func (e *Engine) StoreErr() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.storeErr
}

// SetRetryPolicy overrides the retry count (re-attempts after the first
// failure; < 0 keeps the current value) and backoff base (<= 0 keeps the
// current value).
func (e *Engine) SetRetryPolicy(retries int, backoff time.Duration) {
	e.mu.Lock()
	if retries >= 0 {
		e.retries = retries
	}
	if backoff > 0 {
		e.backoff = backoff
	}
	e.mu.Unlock()
}

// Prime replays journal entries into the memo cache: each entry's once is
// pre-burned so requests for its key are served from the journal instead of
// re-simulating. Duplicates apply last-wins (a rerun that overwrote a run
// supersedes the earlier record). Returns how many distinct keys are now
// served from the journal.
func (e *Engine) Prime(entries []JournalEntry) int {
	distinct := make(map[memoKey]struct{})
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, ent := range entries {
		me := &memoEntry{st: ent.st, err: ent.err, dur: ent.dur}
		me.once.Do(func() {}) // burn: requesters skip the compute path
		e.memo[ent.key] = me
		distinct[ent.key] = struct{}{}
	}
	e.replayed += len(distinct)
	return len(distinct)
}

// Reset drops the memo cache and zeroes the accounting (pool width, journal
// and retry policy stay).
func (e *Engine) Reset() {
	e.mu.Lock()
	e.memo = map[memoKey]*memoEntry{}
	e.jobs, e.uniqueRuns, e.bespoke = 0, 0, 0
	e.retryCount, e.replayed = 0, 0
	e.storeHits, e.storeErr = 0, nil
	e.quarantine = nil
	e.compute, e.serial = 0, 0
	e.mu.Unlock()
}

// Stats snapshots the engine accounting.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return EngineStats{
		Jobs:           e.jobs,
		UniqueRuns:     e.uniqueRuns,
		CacheHits:      e.jobs - e.uniqueRuns - e.storeHits - e.bespoke,
		StoreHits:      e.storeHits,
		Bespoke:        e.bespoke,
		Retries:        e.retryCount,
		Quarantined:    len(e.quarantine),
		Replayed:       e.replayed,
		ComputeSeconds: e.compute.Seconds(),
		SerialSeconds:  e.serial.Seconds(),
	}
}

// Quarantine returns the quarantined runs in deterministic (bench, mode)
// order, for the footer and the -json report.
func (e *Engine) Quarantine() []QuarantineEntry {
	e.mu.Lock()
	out := append([]QuarantineEntry(nil), e.quarantine...)
	e.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bench != out[j].Bench {
			return out[i].Bench < out[j].Bench
		}
		return out[i].Mode < out[j].Mode
	})
	return out
}

// runSafe executes one simulation with panic containment: a panic anywhere
// under the benchmark build or the simulator becomes this run's error (a
// *pool.PanicError matching pool.ErrRunPanic) instead of taking down the
// sweep.
func runSafe(ctx context.Context, b workloads.Benchmark, o RunOpts) (st *sim.LaunchStats, err error) {
	defer func() {
		if v := recover(); v != nil {
			st, err = nil, pool.NewPanicError("run "+b.Name, -1, v)
		}
	}()
	return runBenchmarkUncached(ctx, b, o)
}

// canceled reports whether err is a cancellation outcome rather than a run
// failure: retrying is pointless (the context is dead) and caching would be
// wrong (the run is healthy and must re-execute under a live context).
func canceled(err error) bool {
	return errors.Is(err, sim.ErrCanceled) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// computeWithRetry runs one unique simulation under the retry policy:
// failures (including contained panics) re-attempt up to `retries` times
// after a deterministic backoff; cancellation stops immediately. The final
// failure after exhausting the retries is quarantined.
func (e *Engine) computeWithRetry(ctx context.Context, b workloads.Benchmark, o RunOpts) (*sim.LaunchStats, error) {
	e.mu.Lock()
	retries, backoff := e.retries, e.backoff
	e.mu.Unlock()
	o.coreParallel = e.CoreParallelism()

	var st *sim.LaunchStats
	var err error
	for attempt := 0; ; attempt++ {
		st, err = runSafe(ctx, b, o)
		if err == nil || canceled(err) {
			return st, err
		}
		if attempt >= retries {
			break
		}
		// Deterministic backoff: base << attempt, interruptible by the
		// context (a Ctrl-C must not sit out a sleep).
		t := time.NewTimer(backoff << attempt)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return st, err
		}
		e.mu.Lock()
		e.retryCount++
		e.mu.Unlock()
	}
	e.mu.Lock()
	e.quarantine = append(e.quarantine, QuarantineEntry{
		Bench:    b.Name,
		Mode:     o.Mode.String(),
		Attempts: retries + 1,
		Err:      err.Error(),
	})
	e.mu.Unlock()
	return st, err
}

// RunBenchmark executes (or recalls) one benchmark run and returns a
// defensive copy of its stats: every caller owns its result outright.
// Cancellation surfaces as an error matching sim.ErrCanceled and leaves the
// run uncached so it re-executes under a live context.
//
// Layering on a memo miss: the content-addressed store is consulted first
// (the run hash is computed here, once per unique config — the memo-hit
// fast path never hashes); on a store miss the run executes, remotely when
// a fleet coordinator is attached and the benchmark resolves out-of-process,
// locally otherwise; the completed run is then made durable (store, journal)
// before the result is reported.
func (e *Engine) RunBenchmark(ctx context.Context, b workloads.Benchmark, o RunOpts) (*sim.LaunchStats, error) {
	key := o.memoKey(b.Name)
	e.mu.Lock()
	ent, ok := e.memo[key]
	if !ok {
		ent = &memoEntry{}
		e.memo[key] = ent
	}
	e.mu.Unlock()

	executed, fromStore := false, false
	ent.once.Do(func() {
		e.mu.Lock()
		store, remote := e.store, e.remote
		e.mu.Unlock()

		var sk resultstore.Key
		var hash string
		if store != nil || remote != nil {
			sk = key.storeKey()
			hash = sk.Hash()
		}
		if store != nil {
			if se, ok := store.GetHash(sk, hash); ok {
				ent.st = se.Stats
				if se.Err != "" {
					ent.err = errors.New(se.Err)
				}
				ent.dur = time.Duration(se.DurNS)
				fromStore = true
				return
			}
		}

		start := time.Now()
		viaRemote := false
		if remote != nil && CanExecuteRemotely(b.Name) {
			viaRemote = true
			var dur time.Duration
			ent.st, dur, ent.err = remote(ctx, sk)
			ent.dur = dur
			if ent.dur <= 0 {
				ent.dur = time.Since(start)
			}
			if ent.err != nil && !canceled(ent.err) {
				// The coordinator exhausted its reassignment budget (or the
				// run fails deterministically on every worker): quarantine,
				// mirroring the local retry policy's terminal state.
				e.mu.Lock()
				e.quarantine = append(e.quarantine, QuarantineEntry{
					Bench: b.Name, Mode: o.Mode.String(), Attempts: 1, Err: ent.err.Error(),
				})
				e.mu.Unlock()
			}
		} else {
			ent.st, ent.err = e.computeWithRetry(ctx, b, o)
			ent.dur = time.Since(start)
		}
		executed = true

		// Durability before reporting: a killed sweep never re-pays for a
		// reported run. Canceled runs are healthy-but-unfinished and are
		// never stored. Remote results are already durable — the coordinator
		// commits each delivery write-ahead before unblocking this call —
		// and a remote *failure* here means the lease budget ran out, an
		// infrastructure failure a warm re-run should retry, not a result.
		if store != nil && !viaRemote && !(ent.err != nil && canceled(ent.err)) {
			if perr := store.PutHash(sk, hash, ent.st, ent.err, ent.dur); perr != nil {
				e.mu.Lock()
				if e.storeErr == nil {
					e.storeErr = perr
				}
				e.mu.Unlock()
			}
		}
	})

	if ent.err != nil && canceled(ent.err) {
		// A canceled run is healthy but unfinished: drop it from the cache
		// (guarding against a newer entry having replaced it) so the next
		// attempt under a live context re-executes instead of replaying the
		// cancellation forever.
		e.mu.Lock()
		if e.memo[key] == ent {
			delete(e.memo, key)
		}
		e.mu.Unlock()
		return nil, ent.err
	}

	if executed {
		// Write-ahead: the record must be durable before the result is
		// reported, so a killed sweep never re-pays for a reported run.
		e.mu.Lock()
		j := e.journal
		e.mu.Unlock()
		if j != nil {
			j.append(key, ent.st, ent.err, ent.dur)
		}
	}

	e.mu.Lock()
	e.jobs++
	e.serial += ent.dur
	if executed {
		e.uniqueRuns++
		e.compute += ent.dur
	}
	if fromStore {
		e.storeHits++
	}
	e.mu.Unlock()
	return ent.st.Clone(), ent.err
}

// RunSet fans jobs out across the pool (memoized) and delivers stats by
// index. On failure it returns the lowest-index error, matching what the
// serial loop would have reported first; cancellation stops dispatch and
// surfaces the context's cause.
func (e *Engine) RunSet(ctx context.Context, jobs []Job) ([]*sim.LaunchStats, error) {
	out := make([]*sim.LaunchStats, len(jobs))
	err := pool.ForEachErrCtx(ctx, e.Workers(), len(jobs), func(i int) error {
		st, err := e.RunBenchmark(ctx, jobs[i].Bench, jobs[i].Opts)
		out[i] = st
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ForEachErr runs n bespoke jobs (multi-kernel pairs, microbenchmark
// variants, tool models — anything that is not a plain RunBenchmark) across
// the pool. The jobs are timed into the engine accounting but — having no
// run key — are never memoized, journaled, or stored: they re-execute on
// every sweep, warm or cold, and are counted as Bespoke rather than
// UniqueRuns so "0 unique runs" remains an exact warm-sweep assertion. fn
// must write its result into an index-addressed slot. A panicking job
// becomes that index's error.
func (e *Engine) ForEachErr(ctx context.Context, n int, fn func(i int) error) error {
	return pool.ForEachErrCtx(ctx, e.Workers(), n, func(i int) error {
		start := time.Now()
		err := fn(i)
		dur := time.Since(start)
		e.mu.Lock()
		e.jobs++
		e.bespoke++
		e.compute += dur
		e.serial += dur
		e.mu.Unlock()
		return err
	})
}

// defaultEngine is the process-wide engine: every figure shares it, which
// is what lets fig15's and fig17's ModeOff baselines reuse fig14's runs.
var defaultEngine = NewEngine(0)

// SetParallelism sets the default engine's pool width (<= 0 = per-CPU);
// cmd/experiments wires its -parallel flag here.
func SetParallelism(n int) { defaultEngine.SetWorkers(n) }

// Parallelism reports the default engine's pool width.
func Parallelism() int { return defaultEngine.Workers() }

// SetCoreParallelism records the requested per-simulation core-stepping
// width on the default engine; cmd/experiments wires its -core-parallel
// flag here.
func SetCoreParallelism(n int) { defaultEngine.SetCoreParallelism(n) }

// CoreParallelism reports the default engine's resolved core-stepping width.
func CoreParallelism() int { return defaultEngine.CoreParallelism() }

// SetJournal attaches the write-ahead run journal to the default engine;
// cmd/experiments wires its -journal flag here.
func SetJournal(j *Journal) { defaultEngine.SetJournal(j) }

// SetStore attaches the content-addressed result store to the default
// engine; cmd/experiments wires its -store flag here.
func SetStore(s *resultstore.Store) { defaultEngine.SetStore(s) }

// SetRemote attaches the fleet coordinator's execution hook to the default
// engine; cmd/experiments wires coordinator mode here.
func SetRemote(fn RemoteFunc) { defaultEngine.SetRemote(fn) }

// StoreErr reports the default engine's first store write failure, if any.
func StoreErr() error { return defaultEngine.StoreErr() }

// PrimeJournal replays journal entries into the default engine's memo
// cache (the -resume path), returning how many distinct runs were primed.
func PrimeJournal(entries []JournalEntry) int { return defaultEngine.Prime(entries) }

// QuarantineSnapshot returns the default engine's quarantined runs.
func QuarantineSnapshot() []QuarantineEntry { return defaultEngine.Quarantine() }

// ResetEngine clears the default engine's memo cache and accounting —
// determinism tests use it to compare genuinely fresh serial and parallel
// runs.
func ResetEngine() { defaultEngine.Reset() }

// EngineSnapshot returns the default engine's cumulative stats.
func EngineSnapshot() EngineStats { return defaultEngine.Stats() }

// runSet executes jobs on the default engine.
func runSet(ctx context.Context, jobs []Job) ([]*sim.LaunchStats, error) {
	return defaultEngine.RunSet(ctx, jobs)
}

// forEach runs bespoke indexed jobs on the default engine's pool.
func forEach(ctx context.Context, n int, fn func(i int) error) error {
	return defaultEngine.ForEachErr(ctx, n, fn)
}
