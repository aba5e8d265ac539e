package sim

import (
	"testing"

	"gpushield/internal/core"
	"gpushield/internal/driver"
	"gpushield/internal/kernel"
)

// deviceLaunch is the per-leg work the differential fuzzer pays on top of
// setting up its hardware: one buffer, one prepared launch (which maps the
// default heap and writes a fresh RBT) and one small run.
func deviceLaunch(tb testing.TB, k *kernel.Kernel, dev *driver.Device, gpu *GPU) {
	buf := dev.Malloc("p", 4096*4, false)
	l, err := dev.PrepareLaunch(k, 1, 64, []driver.Arg{driver.BufArg(buf)}, driver.ModeShield, nil)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := gpu.Run(l); err != nil {
		tb.Fatal(err)
	}
}

// freshDeviceLaunch builds a new device and a new shield-enabled Nvidia GPU
// and runs deviceLaunch on them.
func freshDeviceLaunch(tb testing.TB, k *kernel.Kernel, cfg Config) {
	dev := driver.NewDevice(1)
	deviceLaunch(tb, k, dev, New(cfg, dev))
}

// resetDeviceLaunch is freshDeviceLaunch on a reused pair, which is what the
// fuzzer's pooled legs do: the device and GPU are reset, not rebuilt.
func resetDeviceLaunch(tb testing.TB, k *kernel.Kernel, dev *driver.Device, gpu *GPU) {
	dev.Reset(1)
	gpu.Reset()
	deviceLaunch(tb, k, dev, gpu)
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

// BenchmarkResetDeviceLaunch is BenchmarkFreshDeviceLaunch with the pair
// reset in place instead of rebuilt; run it with -benchmem.
func BenchmarkResetDeviceLaunch(b *testing.B) {
	k := buildAllocKernel(b)
	dev := driver.NewDevice(1)
	gpu := New(freshDeviceConfig(), dev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resetDeviceLaunch(b, k, dev, gpu)
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

// TestResetDeviceAllocs bounds the same sequence on a reset pair. The reset
// keeps every line array, arena and map bucket, and the backing chunks the
// launch touches come from the store's free list, so what remains is the
// launch itself (RBT, tagged arguments, report): about 42 objects.
func TestResetDeviceAllocs(t *testing.T) {
	k := buildAllocKernel(t)
	dev := driver.NewDevice(1)
	gpu := New(freshDeviceConfig(), dev)
	allocs := testing.AllocsPerRun(10, func() { resetDeviceLaunch(t, k, dev, gpu) })
	if allocs > 100 {
		t.Errorf("reset device + GPU + launch allocated %.0f objects, want <= 100", allocs)
	}
}
