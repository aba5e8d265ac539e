// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -run fig14
//	experiments -run all [-csv] [-parallel N] [-json]
//	experiments -run all -journal runs.jsonl        # crash-safe sweep
//	experiments -run all -resume runs.jsonl -journal runs.jsonl
//	experiments -run faults -soak 20s -parallel 4   # soak the campaign path
//	experiments -run all -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Tables and CSV go to stdout; progress, per-experiment errors, and the
// engine footer go to stderr, so stdout is byte-identical for any -parallel
// width (compare `-parallel 1` against `-parallel 8` with a plain diff).
// With -json the roles shift: stdout carries only the JSON report (parseable
// with a plain `| jq .`) and the tables move to stderr.
// With -run all a failing experiment no longer aborts the sweep: every
// remaining experiment still runs, failures are reported per-experiment,
// and the process exits non-zero at the end if anything failed.
//
// Lifecycle: -journal appends every completed unique run to a write-ahead
// log (fsync'd before the result is reported); -resume replays such a log
// into the memo cache so an interrupted sweep continues where it stopped,
// with final stdout byte-identical to an uninterrupted run. The first
// SIGINT/SIGTERM cancels cleanly (in-flight simulations abort with partial
// stats, the journal stays valid); a second signal hard-exits. -soak loops
// fault-injection campaigns until the duration elapses, watching for memory
// growth between iterations.
//
// Fleet mode (fault-tolerant sweep orchestration):
//
//	experiments -run all -store results/                 # incremental sweep
//	experiments -run all -store results/ -fleet 4        # 4 worker processes
//	experiments -worker                                  # one worker (spawned by -fleet)
//
// -store DIR keeps every completed run in a content-addressed result store
// (keyed by the canonical run hash over benchmark, arch, mode, BCU config,
// scale, seed, and sim version): a warm re-run re-simulates only configs
// whose hash is absent, and a coordinator killed at any point resumes from
// the store with byte-identical final stdout. -fleet N spawns N worker
// subprocesses (this binary with -worker) and leases them job shards;
// workers heartbeat while executing and stream results back append-only,
// leases expire on missed heartbeats and shards are reassigned with capped
// exponential backoff, so any worker can die — kill -9 included — and the
// sweep still completes with stdout byte-identical to a serial local run.
// Interrupted coordinators and SIGTERM'd workers both exit 130 with the
// partial store intact.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"gpushield/internal/experiments"
	"gpushield/internal/faults"
	"gpushield/internal/fleet"
	"gpushield/internal/lifecycle"
	"gpushield/internal/resultstore"
)

// expTiming is one experiment's entry in the -json timing output.
type expTiming struct {
	ID     string  `json:"id"`
	OK     bool    `json:"ok"`
	Error  string  `json:"error,omitempty"`
	WallMS float64 `json:"wall_ms"`
}

// runReport is the full machine-readable -json payload: per-experiment
// timings plus the engine's job/cache accounting, for the bench trajectory.
type runReport struct {
	Parallel     int                           `json:"parallel"`
	CoreParallel int                           `json:"core_parallel"`
	Experiments  []expTiming                   `json:"experiments"`
	Engine       experiments.EngineStats       `json:"engine"`
	Store        *resultstore.Stats            `json:"store,omitempty"`
	Fleet        *fleet.Stats                  `json:"fleet,omitempty"`
	Quarantined  []experiments.QuarantineEntry `json:"quarantined,omitempty"`
	Interrupted  bool                          `json:"interrupted,omitempty"`
	TotalWallMS  float64                       `json:"total_wall_ms"`
	Speedup      float64                       `json:"speedup"`
	Failed       int                           `json:"failed"`
}

func main() { os.Exit(realMain()) }

// installSignalHandler wires the two-stage shutdown via internal/lifecycle:
// the first SIGINT/SIGTERM cancels ctx (simulations abort with partial
// stats, the journal stays consistent) and prints how to resume; the second
// kills the process immediately for the case where a clean drain itself is
// wedged.
func installSignalHandler(cancel context.CancelCauseFunc, journalPath string) {
	lifecycle.Notify(func(s os.Signal) {
		hint := "use -journal FILE to make interrupted sweeps resumable"
		if journalPath != "" {
			hint = fmt.Sprintf("resume later with -resume %s -journal %s", journalPath, journalPath)
		}
		fmt.Fprintf(os.Stderr, "\n%v: canceling (%s); signal again to exit immediately\n", s, hint)
		cancel(lifecycle.CancelCause(s))
	})
}

// realMain carries the exit code back through the deferred profile writers
// (os.Exit would skip them).
func realMain() int {
	list := flag.Bool("list", false, "list available experiments")
	run := flag.String("run", "all", "experiment id to run, or 'all'")
	csv := flag.Bool("csv", false, "emit tables as CSV instead of aligned text")
	parallel := flag.Int("parallel", 0, "engine worker-pool width; 0 = one per CPU, 1 = serial")
	coreParallel := flag.Int("core-parallel", 0, "per-simulation core-stepping width; 0 (auto) and 1 step serially, a wider request is capped so parallel × core-parallel <= CPU count")
	jsonOut := flag.Bool("json", false, "emit a machine-readable timing summary (JSON) on stdout; tables move to stderr")
	journalPath := flag.String("journal", "", "append every completed run to this write-ahead journal (JSON lines, fsync'd)")
	journalMaxBytes := flag.Int64("journal-max-bytes", 64<<20, "compact the journal (last record per key, atomic rewrite) when it grows past this many bytes; 0 = unbounded. Keeps soak-length loops from growing the journal with wall-clock time")
	resumePath := flag.String("resume", "", "replay a journal into the run cache before starting (continue an interrupted sweep)")
	storePath := flag.String("store", "", "content-addressed result store directory: completed runs persist under their run hash, warm re-runs re-simulate only absent configs")
	fleetN := flag.Int("fleet", 0, "coordinator mode: spawn N worker subprocesses (-worker) and lease them job shards; 0 = compute in-process")
	workerMode := flag.Bool("worker", false, "worker mode: read shard leases on stdin, stream results on stdout (spawned by -fleet)")
	fleetShard := flag.Int("fleet-shard", 0, "jobs per leased shard in -fleet mode (0 = default 4)")
	fleetHeartbeat := flag.Duration("fleet-heartbeat", 0, "worker heartbeat period in -fleet mode (0 = default 500ms)")
	fleetLease := flag.Duration("fleet-lease", 0, "silence tolerated before a worker's lease expires and its shard is reassigned (0 = default 4x heartbeat)")
	soak := flag.Duration("soak", 0, "loop fault-injection campaigns for this duration, checking for memory growth")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file (go tool pprof)")
	seed := flag.Int64("seed", 0, "fuzz stream seed for -run fuzz (0 = default 1); the same seed replays byte-identically")
	fuzzCount := flag.Int("fuzz-count", 0, "number of fuzz cases for -run fuzz (0 = default 500)")
	fuzzShrink := flag.Int("fuzz-shrink", 0, "shrink budget (oracle evaluations) per fuzz disagreement (0 = default 300)")
	fuzzCorpus := flag.String("fuzz-corpus", "", "directory to write shrunk fuzz reproducers to (e.g. testdata/bugcorpus); empty = don't persist")
	flag.Parse()

	if *workerMode {
		return runWorker()
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // only reachable steady-state memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return 0
	}

	experiments.SetParallelism(*parallel)
	experiments.SetCoreParallelism(*coreParallel)
	experiments.SetFuzzOptions(*seed, *fuzzCount, *fuzzShrink, *fuzzCorpus)

	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	installSignalHandler(cancel, *journalPath)

	if *soak > 0 {
		return runSoak(ctx, *soak)
	}

	// Replay before opening for append: -resume and -journal may (and in the
	// resume workflow do) name the same file.
	if *resumePath != "" {
		entries, prep, err := experiments.LoadJournalReport(*resumePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "resume: %v\n", err)
			return 1
		}
		n := experiments.PrimeJournal(entries)
		fmt.Fprintf(os.Stderr, "resume: replayed %d completed runs from %s\n", n, *resumePath)
		if prep.Damaged() {
			fmt.Fprintf(os.Stderr, "resume: journal damage tolerated (%s); skipped runs re-execute\n", prep)
		}
	}
	var journal *experiments.Journal
	if *journalPath != "" {
		j, err := experiments.OpenJournal(*journalPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "journal: %v\n", err)
			return 1
		}
		journal = j
		j.SetMaxBytes(*journalMaxBytes)
		experiments.SetJournal(j)
		defer func() {
			experiments.SetJournal(nil)
			if err := j.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "journal: %v (resume coverage may be incomplete)\n", err)
			}
		}()
	}

	// Durable layer below the memo cache: completed runs persist under their
	// content hash, so warm re-runs (and resumed coordinator kills) only
	// re-simulate configs that were never delivered.
	var store *resultstore.Store
	if *storePath != "" {
		st, err := resultstore.Open(*storePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "store: %v\n", err)
			return 1
		}
		store = st
		experiments.SetStore(store)
		defer experiments.SetStore(nil)
	}

	// Coordinator mode: lease job shards to worker subprocesses. Results
	// are stored durably on delivery (when -store is set) before the engine
	// is unblocked, so killing this process mid-merge loses nothing.
	var coord *fleet.Coordinator
	if *fleetN > 0 {
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintf(os.Stderr, "fleet: %v\n", err)
			return 1
		}
		c, err := fleet.Start(fleet.Config{
			Workers:   *fleetN,
			Argv:      []string{exe, "-worker"},
			ShardSize: *fleetShard,
			Heartbeat: *fleetHeartbeat,
			Lease:     *fleetLease,
			Store:     store,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "fleet: %v\n", err)
			return 1
		}
		coord = c
		experiments.SetRemote(c.Run)
		defer func() {
			experiments.SetRemote(nil)
			c.Close()
		}()
	}

	var todo []experiments.Experiment
	if *run == "all" {
		todo = experiments.All()
	} else {
		e, err := experiments.ByID(*run)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		todo = []experiments.Experiment{e}
	}

	// With -json, stdout must be pure JSON; the tables stay visible on stderr.
	tableOut := os.Stdout
	if *jsonOut {
		tableOut = os.Stderr
	}

	start := time.Now()
	timings := make([]expTiming, 0, len(todo))
	var failures []string
	interrupted := false
	for _, e := range todo {
		if ctx.Err() != nil {
			interrupted = true
			break
		}
		t0 := time.Now()
		res, err := e.Run(ctx)
		elapsed := time.Since(t0)
		if err != nil && ctx.Err() != nil {
			// Cancellation, not a failure: the run is healthy and will be
			// re-executed (or journal-served) on resume.
			fmt.Fprintf(os.Stderr, "CANCELED %s after %v\n", e.ID, elapsed.Round(time.Millisecond))
			interrupted = true
			break
		}
		tm := expTiming{ID: e.ID, OK: err == nil, WallMS: float64(elapsed.Microseconds()) / 1000}
		if err != nil {
			tm.Error = err.Error()
			failures = append(failures, e.ID)
			fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", e.ID, err)
		} else if *csv {
			fmt.Fprintf(tableOut, "# %s: %s\n", res.ID, res.Title)
			for _, t := range res.Tables {
				fmt.Fprint(tableOut, t.CSV())
			}
		} else {
			fmt.Fprint(tableOut, res.String())
		}
		timings = append(timings, tm)
		fmt.Fprintf(os.Stderr, "(%s finished in %v)\n", e.ID, elapsed.Round(time.Millisecond))
	}
	wall := time.Since(start)
	es := experiments.EngineSnapshot()
	speedup := 0.0
	if w := wall.Seconds(); w > 0 {
		speedup = es.SerialSeconds / w
	}
	quarantined := experiments.QuarantineSnapshot()

	if *jsonOut {
		rep := runReport{
			Parallel:     experiments.Parallelism(),
			CoreParallel: experiments.CoreParallelism(),
			Experiments:  timings,
			Engine:       es,
			Quarantined:  quarantined,
			Interrupted:  interrupted,
			TotalWallMS:  float64(wall.Microseconds()) / 1000,
			Speedup:      speedup,
			Failed:       len(failures),
		}
		if store != nil {
			ss := store.Stats()
			rep.Store = &ss
		}
		if coord != nil {
			fs := coord.Stats()
			rep.Fleet = &fs
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	} else {
		fmt.Fprintf(os.Stderr,
			"engine: %d jobs (%d unique runs, %d store hits, %d cache hits, %d bespoke, %d replayed), parallel=%d, core-parallel=%d, wall %v, serial-equivalent %v, speedup %.2fx\n",
			es.Jobs, es.UniqueRuns, es.StoreHits, es.CacheHits, es.Bespoke, es.Replayed, experiments.Parallelism(), experiments.CoreParallelism(),
			wall.Round(time.Millisecond), time.Duration(es.SerialSeconds*float64(time.Second)).Round(time.Millisecond),
			speedup)
		fmt.Fprintf(os.Stderr, "experiments: %d passed, %d failed\n", len(timings)-len(failures), len(failures))
	}
	for _, q := range quarantined {
		fmt.Fprintf(os.Stderr, "quarantined: %s (%s) after %d attempts: %s\n", q.Bench, q.Mode, q.Attempts, q.Err)
	}
	if journal != nil {
		if err := journal.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "journal: %v (resume coverage may be incomplete)\n", err)
		}
	}
	if store != nil {
		ss := store.Stats()
		fmt.Fprintf(os.Stderr, "store: %d hits, %d puts, %d dups, %d quarantined (%s)\n",
			ss.Hits, ss.Puts, ss.Dups, ss.Quarantined, *storePath)
		for _, p := range store.Quarantined() {
			fmt.Fprintf(os.Stderr, "store: quarantined corrupt entry: %s\n", p)
		}
		if err := experiments.StoreErr(); err != nil {
			fmt.Fprintf(os.Stderr, "store: %v (warm coverage may be incomplete)\n", err)
		}
	}
	if coord != nil {
		fs := coord.Stats()
		fmt.Fprintf(os.Stderr,
			"fleet: %d workers, %d shards leased, %d results, %d dup deliveries, %d worker deaths, %d lease expiries, %d requeues\n",
			*fleetN, fs.ShardsLeased, fs.Results, fs.DupDeliveries, fs.WorkerDeaths, fs.LeaseExpiries, fs.Requeues)
	}
	if interrupted {
		switch {
		case *storePath != "":
			fmt.Fprintf(os.Stderr, "interrupted: rerun with -store %s to continue (completed runs are already durable)\n", *storePath)
		case *journalPath != "":
			fmt.Fprintf(os.Stderr, "interrupted: rerun with -resume %s -journal %s to continue\n", *journalPath, *journalPath)
		default:
			fmt.Fprintln(os.Stderr, "interrupted: rerun with -journal FILE or -store DIR next time to make sweeps resumable")
		}
		return lifecycle.ExitInterrupted
	}
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "failed: %v\n", failures)
		return 1
	}
	return 0
}

// soakInjections is the per-iteration campaign size in -soak mode: small
// enough that iterations turn over every few seconds (so cancellation and
// the heap check both get exercised), large enough to cover every fault
// class per iteration.
const soakInjections = 40

// runSoak loops fault campaigns until the duration elapses (or a signal
// arrives), then reports. Reaching the deadline is success; Ctrl-C is a
// clean interruption; heap growth or a campaign failure is an error.
func runSoak(ctx context.Context, d time.Duration) int {
	cfg := faults.DefaultConfig()
	cfg.Parallel = experiments.Parallelism()
	sctx, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	fmt.Fprintf(os.Stderr, "soak: fault campaigns of %d injections for %v (parallel=%d)\n",
		soakInjections, d, cfg.Parallel)
	rep, err := faults.Soak(sctx, cfg, soakInjections, 2)
	if rep != nil {
		fmt.Fprintln(os.Stderr, rep)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "soak: %v\n", err)
		return 1
	}
	// The loop always ends canceled; what matters is why.
	if cause := context.Cause(sctx); !errors.Is(cause, context.DeadlineExceeded) && cause != nil {
		fmt.Fprintf(os.Stderr, "soak: interrupted: %v\n", cause)
		return lifecycle.ExitInterrupted
	}
	if rep.SDC > 0 {
		fmt.Fprintf(os.Stderr, "soak: note: %d silent corruptions among injected faults (expected for undetectable classes)\n", rep.SDC)
	}
	return 0
}

// runWorker is the -worker entry point: a fleet worker reading shard leases
// on stdin and streaming results on stdout. SIGTERM (the coordinator killing
// an expired lease, or an operator interrupting the fleet) maps to exit 130 —
// the same interrupted status the serial path uses — so the coordinator can
// tell "interrupted" from "crashed".
func runWorker() int {
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	lifecycle.Notify(func(s os.Signal) {
		cancel(lifecycle.CancelCause(s))
	})

	hooks := workerHooksFromEnv()
	err := fleet.Worker(ctx, os.Stdin, os.Stdout, experiments.ExecuteKey, hooks)
	switch {
	case err == nil:
		return 0
	case errors.Is(err, context.Canceled) || ctx.Err() != nil:
		return lifecycle.ExitInterrupted
	default:
		fmt.Fprintf(os.Stderr, "worker: %v\n", err)
		return 1
	}
}

// workerHooksFromEnv decodes chaos-test failure hooks from the environment.
// Production fleets never set these; the chaos suite uses them to make a
// spawned worker stall, truncate a record, or double-deliver on cue.
func workerHooksFromEnv() *fleet.Hooks {
	var h fleet.Hooks
	if v := os.Getenv("GPUSHIELD_HOOK_STALL_AFTER"); v != "" {
		fmt.Sscanf(v, "%d", &h.StallAfterResults)
	}
	h.TruncateOncePath = os.Getenv("GPUSHIELD_HOOK_TRUNCATE_ONCE")
	h.DuplicateResults = os.Getenv("GPUSHIELD_HOOK_DUPLICATE") != ""
	if h == (fleet.Hooks{}) {
		return nil
	}
	return &h
}
