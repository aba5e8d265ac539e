// Command gsbench is the repository's end-to-end benchmark. It drives the
// three things people wait on — regenerating the evaluation (sweep), the
// differential kernel fuzzer (fuzz) and the multi-tenant daemon (serve) —
// checks their outputs, and prints one JSON result line. With -trace 1 it
// instead times the calls into each layer and reports per-layer metrics.
// DESIGN.md in this directory explains the workloads and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gpushield/gsbench/clock"
	"gpushield/internal/experiments"
)

// defaultSeed is the seed the correctness goldens were recorded at: the
// experiments engine's default driver seed.
const defaultSeed = experiments.DefaultSeed

// runConfig is what every workload receives.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	workers  int
	// probe marks a set-up probe: the workload returns as soon as its
	// set-up is done, with the time it ended.
	probe bool
	// initTime is the time from process start to the start of main.
	initTime time.Duration
	env      runEnv
	// cal times the reference rounds of a timed run; nil in traced runs
	// and set-up probes.
	cal *calibrator
}

// setupProbeEnv, set in a child's environment, makes it a set-up probe: it
// runs the workload's set-up, prints the wall-clock time (Unix ns) at which
// the first timed operation would start, and exits.
const setupProbeEnv = "GSBENCH_SETUP_PROBE"

// setupProbes is how many fresh processes setup_s is the median of.
const setupProbes = 25

// measureSetup starts the benchmark binary setupProbes times with the
// run's own arguments as set-up probes. Each sample is the time from
// starting the process to the end of its set-up: exec, package
// initialization, main, and the workload's set-up.
func measureSetup(ctx context.Context, args []string) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var samples []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.CommandContext(ctx, exe, args...)
		cmd.Env = append(os.Environ(), setupProbeEnv+"=1")
		var out, errOut bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &errOut
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("set-up probe: %w: %s", err, bytes.TrimSpace(errOut.Bytes()))
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		ns, err := strconv.ParseInt(lines[len(lines)-1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("set-up probe output: %w", err)
		}
		// The child's clock reading has no monotonic part, so this is a
		// wall-clock difference between two processes on one host.
		samples = append(samples, time.Unix(0, ns).Sub(t0).Seconds())
	}
	return samples, nil
}

// steal returns the run environment with the measured steal ticks.
func (c runConfig) steal(ticks int64) runEnv {
	e := c.env
	e.StealTicks = ticks
	return e
}

// writeTrace stores a traced run's spans under the build directory.
func (c runConfig) writeTrace(tr *tracer) error {
	path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", c.workload, c.seed))
	if err := tr.write(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

type workloadFunc func(ctx context.Context, cfg runConfig, g *gate, rep *report) (Result, error)

// probeResult ends a set-up probe's workload.
func probeResult() Result { return Result{setupEnd: time.Now()} }

var workloadsByName = map[string]workloadFunc{
	"sweep": runSweep,
	"fuzz":  runFuzz,
	"serve": runServe,
}

func main() {
	initTime := time.Since(clock.Start)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr, initTime)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer, initTime time.Duration) int {
	fs := flag.NewFlagSet("gsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: sweep, fuzz or serve")
	seed := fs.Int64("seed", defaultSeed, "workload seed; the correctness goldens hold at the default")
	seconds := fs.Int("seconds", 10, "measurement time in seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	record := fs.String("record", "", "record the correctness goldens at the default seed into this directory and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := checkOverrides(os.Getenv); err != nil {
		fmt.Fprintln(stderr, "gsbench:", err)
		return 2
	}
	if *record != "" {
		if err := recordGoldens(ctx, *record); err != nil {
			fmt.Fprintln(stderr, "gsbench: record:", err)
			return 1
		}
		return 0
	}
	fn, ok := workloadsByName[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "gsbench: need -workload sweep|fuzz|serve, -seconds >= 1 and -trace 0|1")
		return 2
	}
	g, err := loadGate()
	if err != nil {
		fmt.Fprintln(stderr, "gsbench:", err)
		return 1
	}
	cfg := runConfig{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *traceFlag == 1,
		workers:  runtime.NumCPU(),
		probe:    os.Getenv(setupProbeEnv) != "",
		initTime: initTime,
		env:      currentEnv(),
	}
	rep := &report{}
	var setups []float64
	if !cfg.trace && !cfg.probe {
		cfg.cal = newCalibrator(cfg.workers)
		cfg.cal.block(calibWarmRounds)
		if setups, err = measureSetup(ctx, args); err != nil {
			fmt.Fprintln(stderr, "gsbench:", err)
			return 1
		}
	}
	res, err := fn(ctx, cfg, g, rep)
	if err != nil {
		for _, l := range rep.lines {
			fmt.Fprintln(stderr, l)
		}
		fmt.Fprintf(stderr, "gsbench: %s: %v\n", cfg.workload, err)
		if errors.Is(err, context.Canceled) {
			return 130
		}
		return 1
	}
	if cfg.probe {
		fmt.Fprintln(stdout, res.setupEnd.UnixNano())
		return 0
	}
	if !cfg.trace {
		res.Metrics["setup_s"] = Metric{Value: median(setups), Unit: endToEndUnits["setup_s"]}
		rep.printf("%s: setup_s is the median of %d fresh processes, start to first timed operation: min %.4f s max %.4f s; this process: %.4f s to main",
			cfg.workload, len(setups), quantile(setups, 0), quantile(setups, 1), initTime.Seconds())
		if err := scaleToReference(rep, cfg.cal, res.Metrics); err != nil {
			fmt.Fprintln(stderr, "gsbench:", err)
			return 1
		}
	}
	if err := writeResult(stdout, rep, res); err != nil {
		fmt.Fprintln(stderr, "gsbench:", err)
		return 1
	}
	return 0
}

// scaleToReference reports the run's end-to-end metrics as measured, then
// scales them to the reference host's speed (calib.go).
func scaleToReference(rep *report, cal *calibrator, metrics map[string]Metric) error {
	speed, err := cal.speed()
	if err != nil {
		return err
	}
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	var raw []string
	for _, name := range names {
		m := metrics[name]
		raw = append(raw, fmt.Sprintf("%s %.6g %s", name, m.Value, m.Unit))
		m.Value *= math.Pow(speed, hostScaling[name])
		metrics[name] = m
	}
	rep.printf("host: %d reference rounds, median %.3f ms (reference host %.3f ms): speed %.4f, p10-p90 of rounds %.3f-%.3f ms",
		len(cal.samples), median(cal.samples)*1e3, refRoundSeconds*1e3, speed, quantile(cal.samples, 0.1)*1e3, quantile(cal.samples, 0.9)*1e3)
	rep.printf("host: as measured, before scaling to the reference host: %s", strings.Join(raw, ", "))
	return nil
}

// finish assembles a workload's result. attempted and failed count
// operations; failures describe them and are listed in the report. Any
// failure makes the run incorrect.
func finish(rep *report, attempted, failed int, failures []string, metrics map[string]Metric, env runEnv) Result {
	envJSON, _ := json.Marshal(env) // plain struct of strings and ints: cannot fail
	rep.printf("env: %s", envJSON)
	const shown = 20
	for i, f := range failures {
		if i == shown {
			rep.printf("FAILED: ... %d more", len(failures)-shown)
			break
		}
		rep.printf("FAILED: %s", f)
	}
	return Result{
		Correct:   failed == 0 && len(failures) == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   metrics,
	}
}
