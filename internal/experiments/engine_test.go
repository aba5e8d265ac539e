package experiments

import (
	"context"
	"testing"

	"gpushield/internal/driver"
	"gpushield/internal/kernel"
	"gpushield/internal/pool"
	"gpushield/internal/sim"
	"gpushield/internal/workloads"
)

// multiLaunchBench builds a small vector-scale benchmark that the
// application "launches" three times (Invocations > 1), for pinning the
// aggregation math. The name must be unique: the engine memoizes by it.
func multiLaunchBench(name string) workloads.Benchmark {
	return workloads.Benchmark{
		Name: name, Suite: "test", Category: "test", API: "cuda",
		Build: func(dev *driver.Device, scale int) (*workloads.Spec, error) {
			const n = 512
			in := dev.Malloc("in", n*4, true)
			out := dev.Malloc("out", n*4, false)
			b := kernel.NewBuilder(name)
			pin := b.BufferParam("in", true)
			pout := b.BufferParam("out", false)
			tid := b.GlobalTID()
			v := b.LoadGlobal(b.AddScaled(pin, tid, 4), 4)
			b.StoreGlobal(b.AddScaled(pout, tid, 4), b.Mul(v, kernel.Imm(3)), 4)
			k, err := b.Build()
			if err != nil {
				return nil, err
			}
			return &workloads.Spec{
				Kernel: k, Grid: n / 128, Block: 128,
				Args:        []driver.Arg{driver.BufArg(in), driver.BufArg(out)},
				Invocations: 100,
			}, nil
		},
	}
}

// TestMultiLaunchAggregation pins RunBenchmark's launch-replay math: a
// benchmark with Invocations > 1 is replayed three times, and the aggregate
// must sum cycles and counters across the launches rather than alias (and
// then corrupt) the first launch's stats.
func TestMultiLaunchAggregation(t *testing.T) {
	b := multiLaunchBench("test-multilaunch-agg")
	agg, err := RunBenchmark(context.Background(), b, RunOpts{Mode: driver.ModeShield})
	if err != nil {
		t.Fatal(err)
	}

	// Reference: replay the same three launches by hand on an identically
	// seeded device, accumulating with the documented formula.
	dev := driver.NewDevice(DefaultSeed)
	spec, err := b.Build(dev, 1)
	if err != nil {
		t.Fatal(err)
	}
	gpu := sim.New(RunOpts{Mode: driver.ModeShield}.config(b.API), dev)
	var want *sim.LaunchStats
	var wantCycles, wantWarp uint64
	for i := 0; i < 3; i++ {
		l, err := dev.PrepareLaunch(spec.Kernel, spec.Grid, spec.Block, spec.Args, driver.ModeShield, nil)
		if err != nil {
			t.Fatal(err)
		}
		st, err := gpu.Run(l)
		if err != nil {
			t.Fatal(err)
		}
		wantCycles += st.Cycles()
		wantWarp += st.WarpInstrs
		if want == nil {
			want = st.Clone()
		}
	}
	if got := agg.Cycles(); got != wantCycles {
		t.Errorf("aggregate cycles = %d, want the three-launch sum %d", got, wantCycles)
	}
	if agg.WarpInstrs != wantWarp {
		t.Errorf("aggregate warp instrs = %d, want %d", agg.WarpInstrs, wantWarp)
	}
	// The first launch's own stats must have stayed inspectable: the
	// aggregate is a copy, so the reference first-launch numbers must be
	// below the aggregate, not equal to it.
	if want.WarpInstrs >= agg.WarpInstrs {
		t.Errorf("first launch (%d warp instrs) not below aggregate (%d): aggregation aliased",
			want.WarpInstrs, agg.WarpInstrs)
	}
}

// TestSeedSentinel pins the RunOpts.Seed contract: nil selects DefaultSeed,
// an explicit zero is a legal, distinct seed.
func TestSeedSentinel(t *testing.T) {
	if s := (RunOpts{}).effectiveSeed(); s != DefaultSeed {
		t.Fatalf("unset seed resolved to %d, want DefaultSeed %d", s, DefaultSeed)
	}
	if s := (RunOpts{Seed: FixedSeed(0)}).effectiveSeed(); s != 0 {
		t.Fatalf("explicit zero seed resolved to %d, want 0", s)
	}
	if s := (RunOpts{Seed: FixedSeed(7)}).effectiveSeed(); s != 7 {
		t.Fatalf("seed 7 resolved to %d", s)
	}
	// Explicit zero and unset are distinct cache keys (distinct runs).
	b, err := workloads.ByName("vectoradd")
	if err != nil {
		t.Fatal(err)
	}
	k0 := RunOpts{Seed: FixedSeed(0)}.memoKey(b.Name)
	kd := RunOpts{}.memoKey(b.Name)
	ke := RunOpts{Seed: FixedSeed(DefaultSeed)}.memoKey(b.Name)
	if k0 == kd {
		t.Fatal("seed 0 and unset seed share a memo key")
	}
	if kd != ke {
		t.Fatal("unset seed and explicit DefaultSeed must share a memo key")
	}
	// And an explicit zero seed actually runs.
	if _, err := RunBenchmark(context.Background(), b, RunOpts{Seed: FixedSeed(0)}); err != nil {
		t.Fatalf("seed-0 run failed: %v", err)
	}
}

// TestMemoReturnsDistinctCopies pins the cache-safety contract: repeated
// identical requests are served from the memo cache as pointer-distinct
// deep copies, so callers can mutate their result freely.
func TestMemoReturnsDistinctCopies(t *testing.T) {
	b, err := workloads.ByName("vectoradd")
	if err != nil {
		t.Fatal(err)
	}
	o := RunOpts{Mode: driver.ModeShield}
	st1, err := RunBenchmark(context.Background(), b, o)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := RunBenchmark(context.Background(), b, o)
	if err != nil {
		t.Fatal(err)
	}
	if st1 == st2 {
		t.Fatal("memo cache returned the same pointer twice")
	}
	if st1.Cycles() != st2.Cycles() || st1.Checks != st2.Checks {
		t.Fatalf("memoized stats differ: %v vs %v", st1, st2)
	}
	// Mutating one copy must not leak into the next request.
	st1.FinishCycle += 1_000_000
	st1.Checks = 0
	st3, err := RunBenchmark(context.Background(), b, o)
	if err != nil {
		t.Fatal(err)
	}
	if st3.Cycles() != st2.Cycles() || st3.Checks != st2.Checks {
		t.Fatal("mutating a returned copy corrupted the memo cache")
	}
}

// TestParallelMatchesSerial is the determinism contract: for the same
// experiments, a fresh serial engine and a fresh 4-wide parallel engine
// must render byte-identical tables.
func TestParallelMatchesSerial(t *testing.T) {
	ids := []string{"heap", "swcheck"}
	render := func(workers int) []string {
		ResetEngine()
		SetParallelism(workers)
		defer SetParallelism(0)
		var out []string
		for _, id := range ids {
			res, err := ByIDMust(t, id).Run(context.Background())
			if err != nil {
				t.Fatalf("%s under parallel=%d: %v", id, workers, err)
			}
			out = append(out, res.String())
		}
		ResetEngine()
		return out
	}
	serial := render(1)
	parallel := render(4)
	for i, id := range ids {
		if serial[i] != parallel[i] {
			t.Errorf("%s: parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
				id, serial[i], parallel[i])
		}
	}
}

// TestEngineAccounting checks the jobs/unique/cache-hit bookkeeping on a
// private engine.
func TestEngineAccounting(t *testing.T) {
	b, err := workloads.ByName("vectoradd")
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(2)
	jobs := []Job{
		{b, RunOpts{Mode: driver.ModeOff}},
		{b, RunOpts{Mode: driver.ModeShield}},
		{b, RunOpts{Mode: driver.ModeOff}}, // duplicate of job 0
	}
	res, err := e.RunSet(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 || res[0] == nil || res[1] == nil || res[2] == nil {
		t.Fatalf("missing results: %v", res)
	}
	if res[0] == res[2] {
		t.Fatal("duplicate jobs share a stats pointer")
	}
	if res[0].Cycles() != res[2].Cycles() {
		t.Fatal("duplicate jobs disagree")
	}
	s := e.Stats()
	if s.Jobs != 3 || s.UniqueRuns != 2 || s.CacheHits != 1 {
		t.Fatalf("accounting = %+v, want 3 jobs / 2 unique / 1 hit", s)
	}
	e.Reset()
	if s := e.Stats(); s.Jobs != 0 || s.UniqueRuns != 0 {
		t.Fatalf("Reset left accounting %+v", s)
	}
}

// TestCoreParallelismResolution: auto (0) steps serially on any host, even
// a single-worker engine with CPUs to spare; an explicit width is honored up
// to the budget the job workers leave.
func TestCoreParallelismResolution(t *testing.T) {
	e := NewEngine(1)
	if got := e.CoreParallelism(); got != 1 {
		t.Fatalf("NewEngine(1) auto core width = %d, want 1", got)
	}
	budget := pool.DefaultWorkers()
	for _, req := range []int{1, 2, budget, budget + 3} {
		e.SetCoreParallelism(req)
		if got, want := e.CoreParallelism(), min(req, budget); got != want {
			t.Fatalf("requested width %d with budget %d: got %d, want %d", req, budget, got, want)
		}
	}
	e.SetWorkers(budget)
	e.SetCoreParallelism(budget)
	if got := e.CoreParallelism(); got != 1 {
		t.Fatalf("full-width job pool left core width %d, want 1", got)
	}
}
