package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"gpushield/internal/core"
	"gpushield/internal/driver"
)

// occupancyRecorder collects the reports of TestOccupancyGolden's runs.
type occupancyRecorder struct {
	t       *testing.T
	records []goldenRecord
}

func (o *occupancyRecorder) add(name string, stats []*LaunchStats, err error) {
	r := goldenRecord{Name: name, Stats: stats}
	if err != nil {
		r.Err = err.Error()
	}
	o.records = append(o.records, r)
}

func (o *occupancyRecorder) prep(dev *driver.Device, name string, grid, block int, mode driver.Mode) *driver.Launch {
	o.t.Helper()
	var (
		l   *driver.Launch
		err error
	)
	switch name {
	case "vecadd":
		const n = 1000
		a := dev.Malloc("a", n*4, true)
		b := dev.Malloc("b", n*4, true)
		c := dev.Malloc("c", n*4, false)
		for i := 0; i < n; i++ {
			dev.WriteUint32(a, i, uint32(i))
			dev.WriteUint32(b, i, uint32(3*i))
		}
		args := []driver.Arg{driver.BufArg(a), driver.BufArg(b), driver.BufArg(c), driver.ScalarArg(n)}
		l, err = dev.PrepareLaunch(buildVecAdd(o.t), grid, block, args, mode, nil)
	case "mixed":
		n := grid * block
		in := dev.Malloc("in", uint64(n*4), true)
		out := dev.Malloc("out", uint64(n*4), false)
		cnt := dev.Malloc("cnt", 64, false)
		for i := 0; i < n; i++ {
			dev.WriteUint32(in, i, uint32(5*i+1))
		}
		args := []driver.Arg{driver.BufArg(in), driver.BufArg(out), driver.BufArg(cnt)}
		l, err = dev.PrepareLaunch(buildMixedGolden(o.t), grid, block, args, mode, nil)
	case "spin":
		p := dev.Malloc("p", 4096, false)
		l, err = dev.PrepareLaunch(buildSpinGolden(o.t), grid, block, []driver.Arg{driver.BufArg(p)}, mode, nil)
	case "bar-deadlock":
		l, err = dev.PrepareLaunch(buildBarrierDivergence(o.t, 32), grid, block, nil, mode, nil)
	}
	if err != nil {
		o.t.Fatalf("prepare %s: %v", name, err)
	}
	return l
}

// occupancyConfig is the shielded Nvidia GPU the occupancy runs use, with
// a watchdog so a scheduler that never visits a busy core fails instead of
// hanging.
func occupancyConfig() Config {
	cfg := NvidiaConfig().WithShield(core.DefaultBCUConfig())
	cfg.MaxCycles = 400_000
	return cfg
}

// TestOccupancyGolden locks the reports of launches that occupy few of the
// GPU's cores, or reach its top cores late, byte for byte against goldens
// recorded before the scheduler visited only occupied cores: a one-workgroup
// launch, an inter-core pair whose second kernel starts on core 8, a launch
// whose later workgroups are placed mid-run as slots free, two watchdog
// aborts, a cancellation mid-run, and a GPU reused without Reset after a
// contained panic left warps on its high cores.
func TestOccupancyGolden(t *testing.T) {
	o := &occupancyRecorder{t: t}

	// One workgroup, then a launch over every core and one workgroup again
	// on the same GPU: each invocation's schedule depends only on its own
	// occupancy.
	{
		dev := driver.NewDevice(21)
		gpu := New(occupancyConfig(), dev)
		st, err := gpu.Run(o.prep(dev, "mixed", 1, 256, driver.ModeShield))
		o.add("one-wg/shield", []*LaunchStats{st}, err)
		st, err = gpu.Run(o.prep(dev, "mixed", 70, 256, driver.ModeShield))
		o.add("one-wg/then-all-cores", []*LaunchStats{st}, err)
		st, err = gpu.Run(o.prep(dev, "vecadd", 1, 128, driver.ModeShield))
		o.add("one-wg/after-all-cores", []*LaunchStats{st}, err)
	}
	{
		dev := driver.NewDevice(22)
		cfg := IntelConfig().WithShield(core.DefaultBCUConfig())
		cfg.MaxCycles = 400_000
		gpu := New(cfg, dev)
		st, err := gpu.Run(o.prep(dev, "vecadd", 1, 96, driver.ModeOff))
		o.add("one-wg/intel", []*LaunchStats{st}, err)
	}

	// Inter-core pair: the second kernel may use cores 8..15, so only
	// cores 0 and 8 ever hold warps.
	{
		dev := driver.NewDevice(23)
		gpu := New(occupancyConfig(), dev)
		a := o.prep(dev, "vecadd", 2, 128, driver.ModeShield)
		b := o.prep(dev, "mixed", 3, 256, driver.ModeShield)
		st, err := gpu.RunConcurrent([]*driver.Launch{a, b}, ShareInterCore)
		o.add("inter-core/second-on-core-8", st, err)
	}

	// Waves: 16 cores hold 64 workgroups of 256 threads; the other 11 are
	// placed mid-run wherever slots free.
	{
		dev := driver.NewDevice(24)
		gpu := New(occupancyConfig(), dev)
		st, err := gpu.Run(o.prep(dev, "mixed", 75, 256, driver.ModeShield))
		o.add("waves/mid-run-placement", []*LaunchStats{st}, err)
	}

	// Watchdog budget aborts on few cores: a spinning kernel, and one whose
	// workgroups wait at a barrier for warps that spin.
	{
		dev := driver.NewDevice(25)
		cfg := occupancyConfig()
		cfg.MaxCycles = 6000
		gpu := New(cfg, dev)
		st, err := gpu.Run(o.prep(dev, "spin", 3, 512, driver.ModeShield))
		o.add("watchdog/spin-2-cores", []*LaunchStats{st}, err)
		st, err = gpu.Run(o.prep(dev, "bar-deadlock", 2, 64, driver.ModeOff))
		o.add("watchdog/barrier-divergence", []*LaunchStats{st}, err)
	}

	// Cancellation mid-run.
	{
		dev := driver.NewDevice(26)
		gpu := New(NvidiaConfig(), dev)
		ctx, cancel := context.WithCancel(context.Background())
		gpu.SetCycleHook(func(now uint64) {
			if now >= 2500 {
				cancel()
			}
		})
		st, err := gpu.RunCtx(ctx, o.prep(dev, "spin", 5, 512, driver.ModeOff))
		cancel()
		gpu.SetCycleHook(nil)
		o.add("cancel/spin-3-cores", []*LaunchStats{st}, err)
	}

	// A contained panic leaves the spinning second kernel's warps on cores
	// 8..15, and the GPU is reused without Reset. The leftover warps are
	// never woken again, but they still count as live warps that are not at
	// a barrier.
	{
		dev := driver.NewDevice(27)
		cfg := occupancyConfig()
		cfg.MaxCycles = 8000
		gpu := New(cfg, dev)
		a := o.prep(dev, "vecadd", 1, 64, driver.ModeShield)
		b := o.prep(dev, "spin", 16, 512, driver.ModeShield)
		gpu.SetCycleHook(func(now uint64) {
			if now >= 3000 {
				panic("injected")
			}
		})
		func() {
			defer func() {
				if r := recover(); r != "injected" {
					t.Fatalf("recovered %v, want the injected panic", r)
				}
			}()
			gpu.RunConcurrent([]*driver.Launch{a, b}, ShareInterCore)
		}()
		gpu.SetCycleHook(nil)
		st, err := gpu.Run(o.prep(dev, "bar-deadlock", 1, 64, driver.ModeOff))
		o.add("leftover/barrier-divergence", []*LaunchStats{st}, err)
		st, err = gpu.Run(o.prep(dev, "vecadd", 1, 128, driver.ModeShield))
		o.add("leftover/vecadd", []*LaunchStats{st}, err)
	}

	got, err := json.MarshalIndent(o.records, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "golden_occupancy.json")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d records)", path, len(o.records))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to record): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	var old []goldenRecord
	if err := json.Unmarshal(want, &old); err != nil {
		t.Fatalf("golden file corrupt: %v", err)
	}
	for i := range o.records {
		if i >= len(old) {
			t.Fatalf("golden mismatch: extra record %q", o.records[i].Name)
		}
		g, _ := json.Marshal(o.records[i])
		w, _ := json.Marshal(old[i])
		if !bytes.Equal(g, w) {
			t.Errorf("golden mismatch at %q:\n got: %s\nwant: %s", o.records[i].Name, g, w)
		}
	}
	if !t.Failed() {
		t.Fatalf("golden mismatch (record count or trailing bytes)")
	}
}

// TestOccupiedMark pins the occupied-core mark itself: one past the highest
// core that held a warp in the invocation, started afresh by every
// invocation, also at 0 when a contained panic left warps on a higher core
// (they stay parked until a placement wakes them, which raises the mark).
func TestOccupiedMark(t *testing.T) {
	o := &occupancyRecorder{t: t}
	dev := driver.NewDevice(28)
	gpu := New(occupancyConfig(), dev)
	run := func(want int, launches ...*driver.Launch) {
		t.Helper()
		if _, err := gpu.RunConcurrent(launches, ShareInterCore); err != nil {
			t.Fatal(err)
		}
		if gpu.occupied != want {
			t.Fatalf("occupied mark = %d after the run, want %d", gpu.occupied, want)
		}
	}
	run(16, o.prep(dev, "mixed", 70, 256, driver.ModeShield))
	run(1, o.prep(dev, "vecadd", 1, 128, driver.ModeShield))
	run(9, o.prep(dev, "vecadd", 1, 64, driver.ModeShield), o.prep(dev, "vecadd", 1, 64, driver.ModeShield))

	start := gpu.Now()
	gpu.SetCycleHook(func(now uint64) {
		if now >= start+3000 {
			panic("injected")
		}
	})
	func() {
		defer func() { recover() }()
		gpu.RunConcurrent([]*driver.Launch{
			o.prep(dev, "vecadd", 1, 64, driver.ModeShield),
			o.prep(dev, "spin", 12, 512, driver.ModeShield),
		}, ShareInterCore)
	}()
	gpu.SetCycleHook(nil)
	if n := len(gpu.cores[13].warps); n == 0 {
		t.Fatal("the contained panic left no warps on core 13")
	}
	run(1, o.prep(dev, "vecadd", 1, 128, driver.ModeShield))

	gpu.Reset()
	if gpu.occupied != 0 {
		t.Fatalf("occupied mark = %d after Reset, want 0", gpu.occupied)
	}
}
