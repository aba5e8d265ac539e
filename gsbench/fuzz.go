package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"runtime"
	"time"

	"gpushield/internal/compiler"
	"gpushield/internal/core"
	"gpushield/internal/driver"
	"gpushield/internal/kernel"
	"gpushield/internal/kernelfuzz"
	"gpushield/internal/pool"
	"gpushield/internal/sim"
)

// fuzzBatch is the number of cases in one kernelfuzz.Run call. It is
// chosen for sample count, not to match the program: a `-run fuzz` report
// is 500 cases, while 98-case batches give ~280 batches in a 30 s run to
// take medians over. 98 is 14 cycles of the seven plant classes, so every
// batch has the same class mix.
const fuzzBatch = 98

// fuzzTailGroup is how many consecutive batches p90_ms takes each 0.90
// quantile over; it reports the median of those quantiles.
const fuzzTailGroup = 20

// fuzzWarmBatches is how many batches a run checks before it starts timing.
const fuzzWarmBatches = 5

// fuzzMaxCycles is the per-launch watchdog the fuzzer's oracle arms.
const fuzzMaxCycles = 2_000_000

// fuzzOptions is batch b of the case stream of seed: each batch is its own
// kernelfuzz stream, so batches are independent and reproducible.
func fuzzOptions(seed int64, b, workers int) kernelfuzz.Options {
	return kernelfuzz.Options{Seed: seed*65536 + int64(b), Count: fuzzBatch, Parallel: workers}
}

// fuzzRunBatch runs batch b through kernelfuzz.Run and judges it. It
// returns the batch's wall time, its failed cases and one line per failure.
func fuzzRunBatch(ctx context.Context, cfg runConfig, g *gate, b int) (time.Duration, int, []string) {
	t := time.Now()
	res, err := kernelfuzz.Run(ctx, fuzzOptions(cfg.seed, b, cfg.workers))
	wall := time.Since(t)
	if err != nil {
		return wall, fuzzBatch, []string{fmt.Sprintf("fuzz batch %d: %v", b, err)}
	}
	n, fails := g.checkFuzzBatch(cfg.seed, b, res)
	return wall, n, fails
}

// fuzzTrace accumulates what the traced batches measure.
type fuzzTrace struct {
	cases    int
	launches []launchSample
	runs     []*sim.LaunchStats
	walls    []time.Duration
}

func runFuzz(ctx context.Context, cfg runConfig, g *gate, rep *report) (Result, error) {
	// kernelfuzz.Run needs no set-up beyond the process's own.
	if cfg.probe {
		return probeResult(), nil
	}
	var tr *tracer
	acc := &fuzzTrace{}
	if cfg.trace {
		tr = newTracer()
	}
	steal0 := stealTicks()
	var lat, tput, untracedWall, peaks []float64
	var failures []string
	var tracedAlloc, tracedPause uint64
	attempted, failed := 0, 0
	// The first batches of a process run slower than the rest (the heap
	// grows from nothing, pages are touched for the first time), so the
	// run starts with fuzzWarmBatches checked but untimed batches.
	for b := 0; b < fuzzWarmBatches; b++ {
		_, n, fails := fuzzRunBatch(ctx, cfg, g, b)
		attempted += fuzzBatch
		failed += n
		failures = append(failures, fails...)
	}
	measureStart := time.Now()
	minUnits := 1
	if cfg.trace {
		minUnits = 2
	}
	for u := 0; u < minUnits || time.Since(measureStart) < cfg.seconds; u++ {
		if ctx.Err() != nil {
			return Result{}, ctx.Err()
		}
		attempted += fuzzBatch
		// Each batch models one `-run fuzz` process: it starts from a
		// clean heap, and its peak resident set is its own.
		resetPeakRSS()
		// The traced run alternates: unit 2k runs batch k through
		// kernelfuzz.Run, which judges its cases, and unit 2k+1 replays the
		// same cases traced, so the two walls it compares cover identical
		// work under the same host conditions.
		b := fuzzWarmBatches + u
		if cfg.trace {
			b = fuzzWarmBatches + u/2
			if u%2 == 1 {
				var ms0, ms1 runtime.MemStats
				runtime.ReadMemStats(&ms0)
				fails := tracedBatch(ctx, cfg, b, tr, acc)
				runtime.ReadMemStats(&ms1)
				tracedAlloc += ms1.TotalAlloc - ms0.TotalAlloc
				tracedPause += ms1.PauseTotalNs - ms0.PauseTotalNs
				failed += len(fails)
				failures = append(failures, fails...)
				continue
			}
		}
		wall, nFailed, fails := fuzzRunBatch(ctx, cfg, g, b)
		failed += nFailed
		failures = append(failures, fails...)
		l := float64(wall) / 1e6
		if nFailed > 0 {
			l = failedLatency
		}
		lat = append(lat, l)
		tput = append(tput, fuzzBatch/wall.Seconds())
		untracedWall = append(untracedWall, float64(wall))
		peaks = append(peaks, peakRSSMB())
		cfg.cal.owe(wall)
	}
	steal := stealTicks() - steal0
	rep.printf("fuzz: %d cases in batches of %d, %d workers, seed %d", attempted, fuzzBatch, cfg.workers, cfg.seed)
	rep.printf("fuzz: steal ticks during the run: %d", steal)

	if !cfg.trace {
		ms := newMetricSet(endToEndUnits)
		ms.set("peak_rss_mb", median(peaks))
		ms.set("throughput_per_s", median(tput))
		// With a fixed batch size the median batch wall is fuzzBatch
		// divided by the median throughput: the same measurement, reported
		// because every workload reports every end-to-end metric.
		ms.set("p50_ms", median(lat))
		groups := sliceTails(lat, fuzzTailGroup)
		ms.set("p90_ms", median(groups))
		rep.printf("fuzz: throughput, p50 and peak RSS over %d batches; p90_ms the median of %d groups' 0.90 quantiles (%d consecutive batches each), pooled %.3f ms; batch wall p99 %.3f ms",
			len(lat), len(groups), fuzzTailGroup, quantile(lat, tailQ), quantile(lat, 0.99))
		return finish(rep, attempted, failed, failures, ms.complete(), cfg.steal(steal)), nil
	}

	ms := newMetricSet(perLayerUnits)
	ops := acc.cases
	sum := summarize(tr.snapshot())
	var tracedWall time.Duration
	for _, w := range acc.walls {
		tracedWall += w
	}
	for _, name := range []string{"kernelfuzz.case", "kernelfuzz.generate", "kernelfuzz.lower", "kernelfuzz.truth"} {
		ms.set(name+"_ms", sum.perOpMS(name, ops))
	}
	ms.set("kernel.codec_ms", sum.perOpMS("kernel.codec", ops))
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
	return finish(rep, attempted, failed, failures, ms.complete(), cfg.steal(steal)), nil
}

// tracedBatch replays batch b case by case, calling the kernelfuzz,
// kernel, compiler, driver and sim public functions in the order
// kernelfuzz.Run does and timing each call. It returns one line per case
// whose calls failed.
func tracedBatch(ctx context.Context, cfg runConfig, b int, tr *tracer, acc *fuzzTrace) []string {
	opts := fuzzOptions(cfg.seed, b, cfg.workers)
	errs := make([]error, opts.Count)
	samples := make([][]launchSample, opts.Count)
	start := time.Now()
	_ = pool.ForEachErrCtx(ctx, cfg.workers, opts.Count, func(i int) error {
		op := int64(b)*int64(opts.Count) + int64(i)
		root := tr.begin("kernelfuzz.case", -1, op)
		errs[i] = replicaCase(ctx, tr, root, op, opts.Seed, i, func(s launchSample) {
			samples[i] = append(samples[i], s)
		})
		tr.end(root)
		return nil
	})
	acc.walls = append(acc.walls, time.Since(start))
	acc.cases += opts.Count
	var fails []string
	for i, err := range errs {
		if err != nil {
			fails = append(fails, fmt.Sprintf("fuzz case seed=%d index=%d replay: %v", opts.Seed, i, err))
		}
		acc.launches = append(acc.launches, samples[i]...)
		for _, s := range samples[i] {
			acc.runs = append(acc.runs, s.st)
		}
	}
	return fails
}

// replicaCase replays case index of stream seed with the calls the
// fuzzer's oracle makes for it — generate, lower, codec round trip, ground
// truth, static analysis, then the ModeShield and ModeShieldStatic runtime
// legs — with a span around each. It judges nothing: kernelfuzz.Run judged
// the same case in the untraced batch before the replay. It returns the
// first error a call returned.
func replicaCase(ctx context.Context, tr *tracer, root int, op int64, seed int64, index int, onLaunch func(launchSample)) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()

	sp := tr.begin("kernelfuzz.generate", root, op)
	c := kernelfuzz.Generate(seed, index)
	tr.end(sp)

	if c.Malformed != nil {
		sp = tr.begin("kernel.validate", root, op)
		_ = c.Malformed.Kernel.Validate() // the kernel is malformed on purpose; the oracle judges the error
		tr.end(sp)
		return nil
	}

	sp = tr.begin("kernelfuzz.lower", root, op)
	kernels, err := kernelfuzz.BuildKernels(c)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("lower: %w", err)
	}

	sp = tr.begin("kernel.codec", root, op)
	for li, k := range kernels {
		if err := codecRoundTrip(k); err != nil {
			tr.end(sp)
			return fmt.Errorf("launch %d codec: %w", li, err)
		}
	}
	tr.end(sp)

	sp = tr.begin("kernelfuzz.truth", root, op)
	_, err = kernelfuzz.EvalTruth(c)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("truth: %w", err)
	}

	analyses := make([]*compiler.Analysis, len(kernels))
	definiteOOB := false
	for li, k := range kernels {
		sp = tr.begin("compiler.analyze", root, op)
		an, err := compiler.Analyze(k, fuzzLaunchInfo(c, li))
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("analyze launch %d: %w", li, err)
		}
		analyses[li] = an
		definiteOOB = definiteOOB || len(an.OOBReports) > 0
	}

	if err := runtimeLeg(ctx, tr, root, op, c, kernels, nil, driver.ModeShield, onLaunch); err != nil {
		return err
	}
	// The oracle skips the compiler-assisted leg when the analyzer
	// reported a definite out-of-bounds access.
	if definiteOOB {
		return nil
	}
	return runtimeLeg(ctx, tr, root, op, c, kernels, analyses, driver.ModeShieldStatic, onLaunch)
}

// codecRoundTrip makes the oracle's codec calls: encode, decode and
// re-encode.
func codecRoundTrip(k *kernel.Kernel) error {
	enc, err := k.EncodeJSON()
	if err != nil {
		return err
	}
	back, err := kernel.DecodeJSON(enc)
	if err != nil {
		return err
	}
	_, err = back.EncodeJSON()
	return err
}

// fuzzLaunchInfo gives the analyzer exact buffer sizes and every scalar,
// as the oracle does.
func fuzzLaunchInfo(c *kernelfuzz.Case, li int) compiler.LaunchInfo {
	l := &c.Launches[li]
	info := compiler.LaunchInfo{
		Block:       l.Block,
		Grid:        l.Grid,
		BufferBytes: make([]uint64, len(l.Args)),
		ScalarVal:   make([]int64, len(l.Args)),
		ScalarKnown: make([]bool, len(l.Args)),
	}
	for i, a := range l.Args {
		if a.Buf >= 0 {
			info.BufferBytes[i] = c.Bufs[a.Buf].Size()
		} else {
			info.ScalarVal[i] = a.Scalar
			info.ScalarKnown[i] = true
		}
	}
	return info
}

// deviceSeed is the oracle's per-case, per-mode device seed.
func deviceSeed(seed int64, index int, mode driver.Mode) int64 {
	mix := func(x uint64) uint64 {
		x += 0x9E3779B97F4A7C15
		x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
		x = (x ^ (x >> 27)) * 0x94D049BB133111EB
		return x ^ (x >> 31)
	}
	return int64(mix(uint64(seed) ^ mix(uint64(index)*2654435761+uint64(0xD0+mode))))
}

// runtimeLeg runs every launch of the case under mode on a fresh device,
// as the oracle's runtime legs do.
func runtimeLeg(ctx context.Context, tr *tracer, root int, op int64, c *kernelfuzz.Case, kernels []*kernel.Kernel,
	analyses []*compiler.Analysis, mode driver.Mode, onLaunch func(launchSample)) error {
	cfg := sim.NvidiaConfig().WithShield(core.DefaultBCUConfig())
	cfg.MaxCycles = fuzzMaxCycles

	sp := tr.begin("driver.device", root, op)
	dev := driver.NewDevice(deviceSeed(c.Seed, c.Index, mode))
	tr.end(sp)
	sp = tr.begin("sim.new", root, op)
	gpu := sim.New(cfg, dev)
	tr.end(sp)

	sp = tr.begin("driver.device", root, op)
	bufs := make([]*driver.Buffer, len(c.Bufs))
	for i, spec := range c.Bufs {
		bufs[i] = dev.Malloc(spec.Name, spec.Size(), spec.ReadOnly)
		if len(spec.Init) > 0 {
			data := make([]byte, 8*len(spec.Init))
			for j, v := range spec.Init {
				binary.LittleEndian.PutUint64(data[8*j:], uint64(v))
			}
			if err := dev.CopyToDevice(bufs[i], 0, data); err != nil {
				tr.end(sp)
				return fmt.Errorf("mode %s: init %s: %w", mode, spec.Name, err)
			}
		}
	}
	tr.end(sp)

	for li, k := range kernels {
		ls := &c.Launches[li]
		args := make([]driver.Arg, len(ls.Args))
		for i, a := range ls.Args {
			if a.Buf >= 0 {
				args[i] = driver.BufArg(bufs[a.Buf])
			} else {
				args[i] = driver.ScalarArg(a.Scalar)
			}
		}
		var an *compiler.Analysis
		if analyses != nil {
			an = analyses[li]
		}
		sp = tr.begin("driver.prepare", root, op)
		l, err := dev.PrepareLaunch(k, ls.Grid, ls.Block, args, mode, an)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("mode %s: prepare launch %d: %w", mode, li, err)
		}
		t0 := time.Now()
		st, err := gpu.RunCtx(ctx, l)
		t1 := time.Now()
		tr.add("sim.run", t0, t1, root, op)
		if err != nil {
			return fmt.Errorf("mode %s: run launch %d: %w", mode, li, err)
		}
		if onLaunch != nil {
			onLaunch(launchSample{mode: mode, dur: t1.Sub(t0), st: st})
		}
	}
	return nil
}
