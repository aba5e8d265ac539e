package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"gpushield/internal/compiler"
	"gpushield/internal/core"
	"gpushield/internal/driver"
	"gpushield/internal/experiments"
	"gpushield/internal/pool"
	"gpushield/internal/sim"
	"gpushield/internal/workloads"
)

// sweepScale is fig14's problem scale.
const sweepScale = 2

// coalescedCut splits launches for sim.ns_per_warp_instr: a launch whose
// transactions per memory instruction are at most this is "coalesced",
// above it "divergent". Unit-stride 4-byte warps need 4 transactions of
// 32 bytes; strided and indirect (graph) warps need up to 32.
const coalescedCut = 4.0

var sweepModes = []driver.Mode{driver.ModeOff, driver.ModeShield, driver.ModeShieldStatic}

// sweepJob is one run of the sweep: a registered benchmark in one mode.
type sweepJob struct {
	bench workloads.Benchmark
	mode  driver.Mode
}

func (j sweepJob) key() string { return j.bench.Name + "/" + j.mode.String() }

// sweepJobs lists every registered benchmark in every mode, in registry
// order. The order is fixed so the pool's tail at the end of a pass is the
// same in every run.
func sweepJobs() []sweepJob {
	var jobs []sweepJob
	for _, b := range workloads.All() {
		for _, m := range sweepModes {
			jobs = append(jobs, sweepJob{b, m})
		}
	}
	return jobs
}

// passResult is one pass over every sweep job.
type passResult struct {
	wall      time.Duration
	latencies []float64 // ms per run; failedLatency for a failed run
	failures  []string
	engine    experiments.EngineStats
	traced    bool
	peaksMB   []float64 // an untraced pass's peak resident set per rssWindow
}

// enginePass runs every job once through Engine.RunBenchmark on a fresh
// engine (cold memo, no store) with one pool worker per CPU, as
// `cmd/experiments` does.
func enginePass(ctx context.Context, cfg runConfig, jobs []sweepJob, g *gate) passResult {
	e := experiments.NewEngine(cfg.workers)
	res := passResult{latencies: make([]float64, len(jobs))}
	fails := make([]string, len(jobs))
	start := time.Now()
	_ = pool.ForEachErrCtx(ctx, cfg.workers, len(jobs), func(i int) error {
		j := jobs[i]
		t := time.Now()
		st, err := e.RunBenchmark(ctx, j.bench, experiments.RunOpts{
			Mode: j.mode, Scale: sweepScale, Seed: experiments.FixedSeed(cfg.seed)})
		res.latencies[i] = msSince(t)
		if fails[i] = g.checkRun(cfg.seed, j, st, err); fails[i] != "" {
			res.latencies[i] = failedLatency
		}
		return nil
	})
	res.wall = time.Since(start)
	res.engine = e.Stats()
	res.failures = nonEmpty(fails)
	return res
}

// launchSample is one simulated launch of a traced run.
type launchSample struct {
	mode driver.Mode
	dur  time.Duration
	st   *sim.LaunchStats
}

// sweepTrace accumulates what the traced passes measure.
type sweepTrace struct {
	runs     []*sim.LaunchStats
	launches []launchSample
	walls    []time.Duration
	busy     time.Duration // EngineStats.ComputeSeconds of the traced passes
}

// tracedPass runs every job once through the engine's pool (ForEachErr, so
// the engine accounts the work), calling the layers' public functions the
// way runBenchmarkUncached does and timing each call.
func tracedPass(ctx context.Context, cfg runConfig, jobs []sweepJob, g *gate, tr *tracer, opBase int64, acc *sweepTrace) passResult {
	e := experiments.NewEngine(cfg.workers)
	res := passResult{latencies: make([]float64, len(jobs)), traced: true}
	fails := make([]string, len(jobs))
	runs := make([]*sim.LaunchStats, len(jobs))
	samples := make([][]launchSample, len(jobs))
	start := time.Now()
	_ = e.ForEachErr(ctx, len(jobs), func(i int) error {
		j := jobs[i]
		op := opBase + int64(i)
		t := time.Now()
		root := tr.begin("experiments.run", -1, op)
		st, err := replicaRun(ctx, tr, root, op, j, cfg.seed, false, func(s launchSample) {
			samples[i] = append(samples[i], s)
		})
		tr.end(root)
		res.latencies[i] = msSince(t)
		runs[i] = st
		if fails[i] = g.checkRun(cfg.seed, j, st, err); fails[i] != "" {
			res.latencies[i] = failedLatency
		}
		return nil
	})
	res.wall = time.Since(start)
	res.engine = e.Stats()
	res.failures = nonEmpty(fails)
	acc.walls = append(acc.walls, res.wall)
	acc.busy += time.Duration(res.engine.ComputeSeconds * float64(time.Second))
	for i, st := range runs {
		if st != nil {
			acc.runs = append(acc.runs, st)
		}
		acc.launches = append(acc.launches, samples[i]...)
	}
	return res
}

// simConfig mirrors experiments.RunOpts for the sweep: CUDA benchmarks on
// the Nvidia config, OpenCL on Intel, the paper's BCU in shield modes.
func simConfig(api string, mode driver.Mode) sim.Config {
	cfg := sim.NvidiaConfig()
	if api == "opencl" {
		cfg = sim.IntelConfig()
	}
	if mode != driver.ModeOff {
		cfg = cfg.WithShield(core.DefaultBCUConfig())
	}
	return cfg
}

// replicaRun performs one sweep run by calling the workloads, compiler,
// driver and sim public functions in the order the experiments engine
// calls them, with a span around each call. With verifyOnly it runs a
// single launch and then the benchmark's Spec.Verify (nil when the
// benchmark defines none): repeated launches of some applications
// accumulate into their outputs, so only the first launch is checkable.
func replicaRun(ctx context.Context, tr *tracer, parent int, op int64, j sweepJob, seed int64, verifyOnly bool, onLaunch func(launchSample)) (*sim.LaunchStats, error) {
	sp := tr.begin("driver.device", parent, op)
	dev := driver.NewDevice(seed)
	tr.end(sp)

	sp = tr.begin("workloads.build", parent, op)
	spec, err := j.bench.Build(dev, sweepScale)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	var an *compiler.Analysis
	if j.mode == driver.ModeShieldStatic {
		sp = tr.begin("compiler.analyze", parent, op)
		an, err = compiler.Analyze(spec.Kernel, spec.Info())
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("analyze: %w", err)
		}
	}

	sp = tr.begin("sim.new", parent, op)
	gpu := sim.New(simConfig(j.bench.API, j.mode), dev)
	tr.end(sp)

	launches := 1
	if spec.Invocations > 1 && !verifyOnly {
		launches = 3
	}
	var agg *sim.LaunchStats
	for i := 0; i < launches; i++ {
		sp = tr.begin("driver.prepare", parent, op)
		l, err := dev.PrepareLaunch(spec.Kernel, spec.Grid, spec.Block, spec.Args, j.mode, an)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("prepare: %w", err)
		}
		t0 := time.Now()
		st, err := gpu.RunCtx(ctx, l)
		t1 := time.Now()
		tr.add("sim.run", t0, t1, parent, op)
		if err != nil {
			return nil, fmt.Errorf("run: %w", err)
		}
		if st.Aborted {
			return nil, fmt.Errorf("aborted: %s", st.AbortMsg)
		}
		if onLaunch != nil {
			onLaunch(launchSample{mode: j.mode, dur: t1.Sub(t0), st: st})
		}
		if agg == nil {
			agg = st.Clone()
		} else {
			accumulate(agg, st)
		}
	}
	if verifyOnly && spec.Verify != nil && !agg.Aborted && len(agg.Violations) == 0 {
		sp = tr.begin("workloads.verify", parent, op)
		err = spec.Verify(dev)
		tr.end(sp)
		if err != nil {
			return agg, fmt.Errorf("verify: %w", err)
		}
	}
	return agg, nil
}

// accumulate folds a repeated launch into the run's aggregate exactly as
// the experiments engine does.
func accumulate(dst, src *sim.LaunchStats) {
	dst.FinishCycle += src.Cycles()
	dst.WarpInstrs += src.WarpInstrs
	dst.ThreadInstrs += src.ThreadInstrs
	dst.MemInstrs += src.MemInstrs
	dst.Transactions += src.Transactions
	dst.SharedAccs += src.SharedAccs
	dst.L1DAccesses += src.L1DAccesses
	dst.L1DHits += src.L1DHits
	dst.L2Accesses += src.L2Accesses
	dst.L2Hits += src.L2Hits
	dst.L1TLBMisses += src.L1TLBMisses
	dst.L2TLBMisses += src.L2TLBMisses
	dst.Checks += src.Checks
	dst.Type3Checks += src.Type3Checks
	dst.Skipped += src.Skipped
	dst.RL1Hits += src.RL1Hits
	dst.RL2Hits += src.RL2Hits
	dst.RBTFetches += src.RBTFetches
	dst.BCUStalls += src.BCUStalls
	dst.Violations = append(dst.Violations, src.Violations...)
	if src.PagesPerBuffer != nil {
		dst.PagesPerBuffer = src.PagesPerBuffer
	}
}

// verifyPass runs every benchmark that defines Spec.Verify once per mode
// and checks its device output against the host reference. It returns the
// number of benchmarks verified in every mode and the failures.
func verifyPass(ctx context.Context, cfg runConfig, jobs []sweepJob) (verified int, attempted int, failures []string) {
	checkable := map[string]bool{}
	var vjobs []sweepJob
	for _, j := range jobs {
		ok, seen := checkable[j.bench.Name]
		if !seen {
			ok = hasVerify(j.bench, cfg.seed)
			checkable[j.bench.Name] = ok
		}
		if ok {
			vjobs = append(vjobs, j)
		}
	}
	fails := make([]string, len(vjobs))
	_ = pool.ForEachErrCtx(ctx, cfg.workers, len(vjobs), func(i int) error {
		if _, err := replicaRun(ctx, nil, -1, -1, vjobs[i], cfg.seed, true, nil); err != nil {
			fails[i] = vjobs[i].key() + ": " + err.Error()
		}
		return nil
	})
	bad := map[string]bool{}
	names := map[string]bool{}
	for i, j := range vjobs {
		names[j.bench.Name] = true
		if fails[i] != "" {
			bad[j.bench.Name] = true
		}
	}
	return len(names) - len(bad), len(vjobs), nonEmpty(fails)
}

// hasVerify reports whether the benchmark's spec carries a verifier. The
// spec is built on a scratch device; building is deterministic.
func hasVerify(b workloads.Benchmark, seed int64) bool {
	spec, err := b.Build(driver.NewDevice(seed), sweepScale)
	return err == nil && spec.Verify != nil
}

func runSweep(ctx context.Context, cfg runConfig, g *gate, rep *report) (Result, error) {
	jobs := sweepJobs()
	if cfg.probe {
		return probeResult(), nil
	}

	var tr *tracer
	acc := &sweepTrace{}
	if cfg.trace {
		tr = newTracer()
	}
	steal0 := stealTicks()
	var ms0 runtime.MemStats
	var tracedAlloc, tracedPause uint64
	var passes []passResult
	minPasses := 1
	if cfg.trace {
		minPasses = 2
	}
	// The first pass of a process runs up to 10% slower than the rest (the
	// heap grows from nothing, pages are touched for the first time), so
	// the run starts with one checked but untimed pass.
	resetPeakRSS()
	warm := enginePass(ctx, cfg, jobs, g)
	measureStart := time.Now()
	for len(passes) < minPasses || time.Since(measureStart) < cfg.seconds {
		if ctx.Err() != nil {
			return Result{}, ctx.Err()
		}
		// Each pass models one cold sweep process: it starts from a clean
		// heap, and its peak resident set is its own.
		resetPeakRSS()
		// The traced run alternates untraced and traced passes, so the two
		// walls it compares see the same host conditions.
		if cfg.trace && len(passes)%2 == 1 {
			runtime.ReadMemStats(&ms0)
			p := tracedPass(ctx, cfg, jobs, g, tr, int64(len(passes)*len(jobs)), acc)
			var ms1 runtime.MemStats
			runtime.ReadMemStats(&ms1)
			tracedAlloc += ms1.TotalAlloc - ms0.TotalAlloc
			tracedPause += ms1.PauseTotalNs - ms0.PauseTotalNs
			passes = append(passes, p)
			continue
		}
		var p passResult
		peaks := rssWindows(func() { p = enginePass(ctx, cfg, jobs, g) })
		p.peaksMB = peaks
		passes = append(passes, p)
		cfg.cal.owe(p.wall)
	}
	steal := stealTicks() - steal0

	var lat, tput, untracedWall, peaks []float64
	failures := warm.failures
	retries := warm.engine.Retries
	for _, p := range passes {
		failures = append(failures, p.failures...)
		retries += p.engine.Retries
		if p.traced {
			continue
		}
		lat = append(lat, p.latencies...)
		tput = append(tput, float64(len(jobs))/p.wall.Seconds())
		untracedWall = append(untracedWall, float64(p.wall))
		peaks = append(peaks, p.peaksMB...)
	}
	attempted := (1 + len(passes)) * len(jobs)

	verified, vAttempted, vFails := verifyPass(ctx, cfg, jobs)
	attempted += vAttempted
	failures = append(failures, vFails...)

	rep.printf("sweep: %d jobs per pass (%d benchmarks x %d modes, scale %d), %d passes after an untimed one (%.3f s), %d workers, seed %d",
		len(jobs), len(jobs)/len(sweepModes), len(sweepModes), sweepScale, len(passes), warm.wall.Seconds(), cfg.workers, cfg.seed)
	rep.printf("sweep: Spec.Verify passed for %d benchmarks (%d runs)", verified, vAttempted)
	rep.printf("sweep: steal ticks during the run: %d", steal)
	for _, p := range passes {
		if p.traced {
			rep.printf("sweep: pass traced wall %.3f s  engine jobs %d bespoke %d retries %d",
				p.wall.Seconds(), p.engine.Jobs, p.engine.Bespoke, p.engine.Retries)
			continue
		}
		rep.printf("sweep: pass engine wall %.3f s  median window peak RSS %.1f MB  engine jobs %d unique %d retries %d",
			p.wall.Seconds(), median(p.peaksMB), p.engine.Jobs, p.engine.UniqueRuns, p.engine.Retries)
	}

	if !cfg.trace {
		ms := newMetricSet(endToEndUnits)
		ms.set("peak_rss_mb", median(peaks))
		ms.set("throughput_per_s", median(tput))
		ms.set("p50_ms", median(lat))
		tails := sliceTails(lat, len(jobs))
		ms.set("p90_ms", median(tails))
		rep.printf("sweep: throughput median of %d passes; p50 over %d runs; p90_ms the median of the passes' 0.90 quantiles, pooled %.3f ms; run latency p99 %.3f ms",
			len(tput), len(lat), quantile(lat, tailQ), quantile(lat, 0.99))
		rep.printf("sweep: peak_rss_mb the median of %d windows' peaks (%v each); largest window %.1f MB", len(peaks), rssWindow, quantile(peaks, 1))
		return finish(rep, attempted, len(failures), failures, ms.complete(), cfg.steal(steal)), nil
	}

	ms := newMetricSet(perLayerUnits)
	ops := len(acc.runs)
	sum := summarize(tr.snapshot())
	tracedWall := time.Duration(0)
	for _, w := range acc.walls {
		tracedWall += w
	}
	ms.set("experiments.run_ms", sum.perOpMS("experiments.run", ops))
	ms.set("experiments.worker_busy_ratio", ratio(float64(acc.busy), float64(tracedWall)*float64(cfg.workers)))
	ms.set("experiments.retries", ratio(float64(retries), float64(attempted)))
	ms.set("workloads.build_ms", sum.perOpMS("workloads.build", ops))
	ms.set("workloads.verified", float64(verified))
	ms.set("compiler.analyze_ms", sum.perOpMS("compiler.analyze", ops))
	ms.set("driver.device_ms", sum.perOpMS("driver.device", ops))
	ms.set("driver.prepare_ms", sum.perOpMS("driver.prepare", ops))
	ms.set("sim.new_ms", sum.perOpMS("sim.new", ops))
	ms.set("sim.run_ms", sum.perOpMS("sim.run", ops))
	setLaunchMetrics(ms, acc.launches, acc.runs, ops)
	ms.set("host.alloc_kb_per_op", ratio(float64(tracedAlloc)/1024, float64(ops)))
	ms.set("host.gc_pause_ms", ratio(float64(tracedPause)/1e6, float64(ops)))
	ms.set("trace.span_coverage", ratio(float64(sum.rootBusy), float64(tracedWall)*float64(cfg.workers)))
	ms.set("trace.overhead", ratio(median(durations(acc.walls)), median(untracedWall))-1)
	sum.printLayers(rep, tracedWall, cfg.workers)
	if err := cfg.writeTrace(tr); err != nil {
		return Result{}, err
	}
	return finish(rep, attempted, len(failures), failures, ms.complete(), cfg.steal(steal)), nil
}

// setLaunchMetrics derives the sim, core and memsys metrics from the
// traced launches and the statistics of the ops operations they served.
func setLaunchMetrics(ms *metricSet, launches []launchSample, stats []*sim.LaunchStats, ops int) {
	type acc struct {
		dur   time.Duration
		instr uint64
	}
	groups := map[string]*acc{}
	add := func(g string, s launchSample) {
		a := groups[g]
		if a == nil {
			a = &acc{}
			groups[g] = a
		}
		a.dur += s.dur
		a.instr += s.st.WarpInstrs
	}
	for _, s := range launches {
		switch s.mode {
		case driver.ModeOff:
			add("off", s)
		case driver.ModeShield:
			add("shield", s)
		case driver.ModeShieldStatic:
			add("static", s)
		}
		if s.st.MemInstrs > 0 && float64(s.st.Transactions)/float64(s.st.MemInstrs) > coalescedCut {
			add("divergent", s)
		} else {
			add("coalesced", s)
		}
	}
	nsPer := func(g string) float64 {
		a := groups[g]
		if a == nil {
			return 0
		}
		return ratio(float64(a.dur), float64(a.instr))
	}
	for _, g := range []string{"off", "shield", "static", "coalesced", "divergent"} {
		ms.set("sim.ns_per_warp_instr."+g, nsPer(g))
	}
	if off := nsPer("off"); off > 0 {
		ms.set("core.host_overhead", nsPer("shield")/off-1)
	}

	var t sim.LaunchStats
	for _, st := range stats {
		accumulate(&t, st)
	}
	n := float64(ops)
	ms.set("core.checks", ratio(float64(t.Checks), n))
	ms.set("core.rl1_hit_ratio", ratio(float64(t.RL1Hits), float64(t.Checks)))
	ms.set("core.rbt_fetches", ratio(float64(t.RBTFetches), n))
	ms.set("core.bcu_stall_cycles", ratio(float64(t.BCUStalls), n))
	ms.set("memsys.tx_per_mem_instr", ratio(float64(t.Transactions), float64(t.MemInstrs)))
	ms.set("memsys.l1d_hit_ratio", ratio(float64(t.L1DHits), float64(t.L1DAccesses)))
	ms.set("memsys.l2_hit_ratio", ratio(float64(t.L2Hits), float64(t.L2Accesses)))
	ms.set("memsys.tlb_misses", ratio(float64(t.L1TLBMisses), n))
}

func durations(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d)
	}
	return out
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

func nonEmpty(ss []string) []string {
	var out []string
	for _, s := range ss {
		if s != "" {
			out = append(out, s)
		}
	}
	return out
}
