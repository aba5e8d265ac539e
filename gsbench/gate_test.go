package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gpushield/internal/driver"
	"gpushield/internal/kernelfuzz"
	"gpushield/internal/workloads"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// run starts it as a set-up probe.
func TestMain(m *testing.M) {
	if os.Getenv(setupProbeEnv) != "" {
		os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr, 0))
	}
	os.Exit(m.Run())
}

// A recorded statistic that no longer matches makes the run a failed
// operation, on both the engine path and the traced path.
func TestPerturbedStatisticFailsRun(t *testing.T) {
	ctx := context.Background()
	g, err := loadGate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := workloads.ByName("od-swat")
	if err != nil {
		t.Fatal(err)
	}
	jobs := []sweepJob{{b, driver.ModeShield}}
	cfg := runConfig{seed: defaultSeed, workers: 1}
	if p := enginePass(ctx, cfg, jobs, g); len(p.failures) != 0 {
		t.Fatalf("recorded statistics: failures %v", p.failures)
	}
	if p := tracedPass(ctx, cfg, jobs, g, newTracer(), 0, &sweepTrace{}); len(p.failures) != 0 {
		t.Fatalf("traced path against recorded statistics: failures %v", p.failures)
	}

	key := jobs[0].key()
	g.sweep.Runs[key] = append([]uint64(nil), g.sweep.Runs[key]...)
	g.sweep.Runs[key][1]++ // WarpInstrs
	for name, p := range map[string]passResult{
		"engine": enginePass(ctx, cfg, jobs, g),
		"traced": tracedPass(ctx, cfg, jobs, g, nil, 0, &sweepTrace{}),
	} {
		if len(p.failures) != 1 || !strings.Contains(p.failures[0], "WarpInstrs") {
			t.Errorf("%s pass with a perturbed WarpInstrs: failures %v, want one naming WarpInstrs", name, p.failures)
		}
		if !math.IsInf(p.latencies[0], 1) {
			t.Errorf("%s pass: failed run has latency %v, want it to miss every limit", name, p.latencies[0])
		}
	}

	// Away from the recorded seed only errors, aborts and violations count.
	other := runConfig{seed: defaultSeed + 1, workers: 1}
	if p := enginePass(ctx, other, jobs, g); len(p.failures) != 0 {
		t.Errorf("seed %d: failures %v", other.seed, p.failures)
	}
}

// A read-back whose expected bytes differ from what the server returns is
// a failed operation.
func TestFlippedReadBackByteFails(t *testing.T) {
	ctx := context.Background()
	e, err := bootServe(ctx, defaultSeed, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer e.stop()
	w := e.workers[0]

	// awaitRead runs the worker's stream until a benign launch has queued
	// its read-back.
	awaitRead := func() *tenant {
		for i := 0; i < 200 && w.readOf == nil; i++ {
			if r := w.do(ctx); r.fail != "" {
				t.Fatalf("op %s: %s", opNames[r.kind], r.fail)
			}
		}
		if w.readOf == nil {
			t.Fatal("no benign launch in 200 operations")
		}
		return w.readOf
	}

	awaitRead()
	if r := w.do(ctx); r.kind != opRead || r.fail != "" {
		t.Fatalf("unflipped read-back: kind %s fail %q", opNames[r.kind], r.fail)
	}

	tn := awaitRead()
	tn.want[5] ^= 0x01
	r := w.do(ctx)
	if r.kind != opRead || !strings.Contains(r.fail, "1 corrupted read-back bytes") {
		t.Fatalf("flipped read-back: kind %s fail %q", opNames[r.kind], r.fail)
	}
	var tl tally
	tl.note(r, true, 0)
	if len(tl.failures) != 1 {
		t.Errorf("tally counted %d failed operations, want 1", len(tl.failures))
	}
}

// A fuzz batch counts failed cases, not failure lines: several findings
// in one case are one failed case, and a report that differs from the
// recorded one fails the whole batch.
func TestFuzzBatchCountsFailedCases(t *testing.T) {
	g, err := loadGate()
	if err != nil {
		t.Fatal(err)
	}
	rep := &kernelfuzz.Report{Findings: []kernelfuzz.Finding{{Case: 3}, {Case: 3}, {Case: 40}}}
	if n, lines := g.checkFuzzBatch(defaultSeed+1, 0, rep); n != 2 || len(lines) != 3 {
		t.Errorf("three findings in two cases: %d failed cases, %d lines; want 2 and 3", n, len(lines))
	}
	if n, lines := g.checkFuzzBatch(defaultSeed, 0, &kernelfuzz.Report{}); n != fuzzBatch || len(lines) != 1 {
		t.Errorf("report differing from the recorded one: %d failed cases, %d lines; want %d and 1", n, len(lines), fuzzBatch)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// Every workload prints every metric BENCHMARK.json names, with its unit,
// on the last line of its output.
func TestResultNamesEveryMetricWithUnit(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	want := map[string]map[string]string{"0": {}, "1": {}}
	for _, m := range spec.EndToEnd {
		want["0"][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		want["1"][m.Name] = m.Unit
	}

	// The traced run writes its spans under the working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	for _, w := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			var out bytes.Buffer
			args := []string{"--workload", w.Name, "--seed", "7", "--seconds", "1", "--trace", trace}
			if code := run(context.Background(), args, &out, io.Discard, time.Millisecond); code != 0 {
				t.Fatalf("%s trace %s: exit %d", w.Name, trace, code)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res Result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct %v attempted %d failed %d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want[trace]) {
				t.Errorf("%s trace %s: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want[trace]))
			}
			for name, unit := range want[trace] {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace %s: metric %s missing", w.Name, trace, name)
				case m.Unit != unit:
					t.Errorf("%s trace %s: metric %s unit %q, want %q", w.Name, trace, name, m.Unit, unit)
				case trace == "0" && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, name, m.Value)
				}
			}
		}
	}
}

func TestOverridesRefuseTimedRun(t *testing.T) {
	for _, v := range overrideVars {
		getenv := func(k string) string {
			if k == v {
				return "1"
			}
			return ""
		}
		if err := checkOverrides(getenv); err == nil || !strings.Contains(err.Error(), v) {
			t.Errorf("%s set: err %v", v, err)
		}
	}
	if err := checkOverrides(func(string) string { return "" }); err != nil {
		t.Errorf("no override set: %v", err)
	}
}

// Self time is a span's duration minus the union of its children.
func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{Name: "experiments.run", Start: 0, End: 100, Parent: -1},
		{Name: "sim.run", Start: 10, End: 40, Parent: 0},
		{Name: "sim.new", Start: 30, End: 50, Parent: 0}, // overlaps the previous child
		{Name: "driver.prepare", Start: 90, End: 120, Parent: 0},
	}
	s := summarize(spans)
	if got := s.self["experiments"]; got != 100-40-10 {
		t.Errorf("experiments self %d, want 50", got)
	}
	if got := s.self["sim"]; got != 50 {
		t.Errorf("sim self %d, want 50", got)
	}
	if s.rootBusy != 100 {
		t.Errorf("root busy %d, want 100", s.rootBusy)
	}
}

// On a host whose reference rounds take twice the reference host's time,
// times are halved and rates doubled; sizes are left as measured.
func TestScaleToReferenceFollowsHostSpeed(t *testing.T) {
	cal := newCalibrator(2)
	cal.samples = []float64{2 * refRoundSeconds, 2 * refRoundSeconds, 2 * refRoundSeconds}
	m := map[string]Metric{
		"setup_s":          {Value: 0.02, Unit: "s"},
		"p50_ms":           {Value: 10, Unit: "ms"},
		"p90_ms":           {Value: 30, Unit: "ms"},
		"throughput_per_s": {Value: 100, Unit: "1/s"},
		"peak_rss_mb":      {Value: 40, Unit: "MB"},
	}
	if err := scaleToReference(&report{}, cal, m); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"setup_s": 0.01, "p50_ms": 5, "p90_ms": 15, "throughput_per_s": 200, "peak_rss_mb": 40}
	for name, v := range want {
		if got := m[name].Value; math.Abs(got-v) > 1e-9*v {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	if err := scaleToReference(&report{}, newCalibrator(2), m); err == nil {
		t.Error("a run with no reference rounds scaled its metrics")
	}
}

// Every end-to-end metric says how it scales with host speed.
func TestEveryEndToEndMetricHasHostScaling(t *testing.T) {
	for name := range endToEndUnits {
		if _, ok := hostScaling[name]; !ok {
			t.Errorf("%s has no host scaling", name)
		}
	}
	if len(hostScaling) != len(endToEndUnits) {
		t.Errorf("%d host scalings for %d end-to-end metrics", len(hostScaling), len(endToEndUnits))
	}
}

// A reference block times one round per worker and round, and leaves no
// memory mapped.
func TestCalibratorBlockTimesEveryRound(t *testing.T) {
	cal := newCalibrator(2)
	cal.block(3)
	if cal.err != nil {
		t.Fatal(cal.err)
	}
	if len(cal.samples) != 6 {
		t.Fatalf("%d samples, want 6", len(cal.samples))
	}
	speed, err := cal.speed()
	if err != nil || speed <= 0 {
		t.Errorf("speed %v, err %v", speed, err)
	}
}
