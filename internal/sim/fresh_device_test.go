package sim

import (
	"testing"

	"gpushield/internal/core"
	"gpushield/internal/driver"
	"gpushield/internal/kernel"
)

// freshDeviceLaunch is the per-case set-up the differential fuzzer pays:
// a new device and a new shield-enabled Nvidia GPU, one buffer, one
// prepared launch (which maps the default heap and writes a fresh RBT) and
// one small run.
func freshDeviceLaunch(tb testing.TB, k *kernel.Kernel, cfg Config) {
	dev := driver.NewDevice(1)
	gpu := New(cfg, dev)
	buf := dev.Malloc("p", 4096*4, false)
	l, err := dev.PrepareLaunch(k, 1, 64, []driver.Arg{driver.BufArg(buf)}, driver.ModeShield, nil)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := gpu.Run(l); err != nil {
		tb.Fatal(err)
	}
}

// freshDeviceConfig is the fuzzer's configuration, pinned to the serial
// scheduler so the allocation count does not depend on
// GPUSHIELD_CORE_PARALLEL.
func freshDeviceConfig() Config {
	cfg := NvidiaConfig().WithShield(core.DefaultBCUConfig())
	cfg.CoreParallel = 1
	return cfg
}

// BenchmarkFreshDeviceLaunch measures building a device and GPU from
// scratch and running one small launch on them; run it with -benchmem.
func BenchmarkFreshDeviceLaunch(b *testing.B) {
	k := buildAllocKernel(b)
	cfg := freshDeviceConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		freshDeviceLaunch(b, k, cfg)
	}
}

// TestFreshDeviceAllocs bounds the allocations of a fresh device + GPU +
// launch. With one line slice per cache and TLB set (about 1,600 for the
// Nvidia preset) and a hash map with one entry per mapped 4 KB page, this
// sequence allocated about 2,060 objects; with flat line arrays and the
// interval page map it allocates about 450, most of them in the BCUs and
// the run.
func TestFreshDeviceAllocs(t *testing.T) {
	k := buildAllocKernel(t)
	cfg := freshDeviceConfig()
	allocs := testing.AllocsPerRun(10, func() { freshDeviceLaunch(t, k, cfg) })
	if allocs > 600 {
		t.Errorf("fresh device + GPU + launch allocated %.0f objects, want <= 600", allocs)
	}
}
