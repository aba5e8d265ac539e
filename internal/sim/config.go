// Package sim is the cycle-level SIMT GPU model that plays the role MacSim
// plays in the paper's evaluation (§7). It executes kernel IR functionally
// (real data flows through simulated device memory) while modeling the
// timing interactions the paper's results depend on: warp scheduling and
// TLP latency hiding, LSU address coalescing, L1/L2 data caches, L1/L2
// TLBs, FR-FCFS DRAM, and the GPUShield bounds-checking unit with its
// RCache hierarchy.
package sim

import (
	"fmt"
	"os"
	"strconv"

	"gpushield/internal/core"
	"gpushield/internal/memsys"
)

// Config describes one simulated GPU (Table 5).
type Config struct {
	Name string

	Cores             int
	WarpWidth         int // lanes per warp (sub-workgroup size)
	MaxThreadsPerCore int
	MaxWGsPerCore     int // concurrent workgroups per core

	L1D   memsys.CacheConfig
	L1TLB memsys.TLBConfig
	L2    memsys.CacheConfig // shared
	L2TLB memsys.TLBConfig   // shared
	DRAM  memsys.DRAMConfig

	// Latencies in core cycles.
	ALULatency    int // simple integer/float ops
	MulLatency    int // mul/mad
	SFULatency    int // div/rem/sqrt
	SharedLatency int // shared-memory access
	L2Latency     int // L2 data cache hit (beyond L1 miss detection)
	L2TLBLatency  int // L2 TLB hit cost on an L1 TLB miss
	PageWalk      int // full page-table walk cost

	// BCU enables GPUShield hardware checking when EnableBCU is true.
	EnableBCU bool
	BCU       core.BCUConfig

	// MaxCycles is the kernel watchdog budget: a RunConcurrent invocation
	// that has simulated this many cycles without finishing is aborted, its
	// unfinished launches marked Aborted, and ErrWatchdog returned together
	// with the partial reports. 0 disables the watchdog (the historical
	// behaviour: a kernel that never terminates spins forever).
	MaxCycles uint64

	// CoreParallel selects how many OS threads step the simulated cores
	// inside one launch under the two-phase deterministic scheduler (see
	// DESIGN.md "Parallel core stepping"):
	//
	//	 0  — environment default: $GPUSHIELD_CORE_PARALLEL when it parses
	//	      as an integer > 1, otherwise serial stepping;
	//	 1  — serial stepping (the reference scheduler);
	//	>1  — that many workers, capped at the core count.
	//
	// Results — every LaunchStats byte — are identical at every width;
	// only wall-clock time changes. Negative values fail Validate.
	CoreParallel int

	// NoSuperblocks disables superblock stepping (pre-decoded straight-line
	// ALU runs executed in one dispatch; see internal/sim/superblock.go)
	// and shape-tracked registers (internal/sim/shape.go), forcing the
	// reference path: every register vector-shaped, each instruction run
	// lane by lane. The fast path is byte-identical to the reference by
	// construction, so this exists for the equivalence tests and the fuzz
	// gate that prove it, and as an escape hatch. The
	// GPUSHIELD_NO_SUPERBLOCKS environment variable (any non-empty value)
	// forces it on for an unmodified binary.
	NoSuperblocks bool

	// NoMemPlans disables warp memory plans (tag-driven address
	// generation, stride classification, transaction-granularity check
	// batching, and the bulk functional path; see internal/sim/memplan.go),
	// forcing the reference per-lane LSU path. The planned path is
	// byte-identical to the reference by construction, so this exists for
	// the equivalence tests and the fuzz gate that prove it, and as an
	// escape hatch. The GPUSHIELD_NO_MEMPLANS environment variable (any
	// non-empty value) forces it on for an unmodified binary.
	NoMemPlans bool
}

// noSuperblocksEnv force-disables superblock stepping, letting CI diff the
// fast path against reference single-stepping without a rebuild.
const noSuperblocksEnv = "GPUSHIELD_NO_SUPERBLOCKS"

// resolveNoSuperblocks folds the environment override into the config flag.
func (c Config) resolveNoSuperblocks() bool {
	return c.NoSuperblocks || os.Getenv(noSuperblocksEnv) != ""
}

// noMemPlansEnv force-disables warp memory plans, letting CI diff the LSU
// fast path against the reference per-lane path without a rebuild.
const noMemPlansEnv = "GPUSHIELD_NO_MEMPLANS"

// resolveNoMemPlans folds the environment override into the config flag.
func (c Config) resolveNoMemPlans() bool {
	return c.NoMemPlans || os.Getenv(noMemPlansEnv) != ""
}

// coreParallelEnv overrides CoreParallel == 0, which is what lets the
// unmodified golden tests exercise the parallel scheduler in CI.
const coreParallelEnv = "GPUSHIELD_CORE_PARALLEL"

// resolveCoreParallel maps CoreParallel (plus the environment default) to
// the effective worker count, >= 1 and capped at the core count.
func (c Config) resolveCoreParallel() int {
	n := c.CoreParallel
	if n == 0 {
		if s := os.Getenv(coreParallelEnv); s != "" {
			if v, err := strconv.Atoi(s); err == nil && v > 1 {
				n = v
			}
		}
	}
	if n < 1 {
		n = 1
	}
	if n > c.Cores {
		n = c.Cores
	}
	return n
}

// MaxWarpsPerCore returns the warp-context capacity of one core.
func (c Config) MaxWarpsPerCore() int { return c.MaxThreadsPerCore / c.WarpWidth }

// Validate reports whether the configuration describes a constructible GPU.
// Every violation wraps ErrInvalidConfig.
func (c Config) Validate() error {
	if c.Cores <= 0 || c.WarpWidth <= 0 || c.WarpWidth > 64 ||
		c.MaxThreadsPerCore < c.WarpWidth || c.MaxWGsPerCore <= 0 {
		return fmt.Errorf("%w: %q: cores=%d warp=%d threads/core=%d wgs/core=%d",
			ErrInvalidConfig, c.Name, c.Cores, c.WarpWidth, c.MaxThreadsPerCore, c.MaxWGsPerCore)
	}
	for _, cc := range []memsys.CacheConfig{c.L1D, c.L2} {
		if err := cc.Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrInvalidConfig, err)
		}
	}
	for _, tc := range []memsys.TLBConfig{c.L1TLB, c.L2TLB} {
		if err := tc.Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrInvalidConfig, err)
		}
	}
	if c.DRAM.Channels <= 0 || c.DRAM.BanksPerChannel <= 0 ||
		c.DRAM.RowBytes <= 0 || c.DRAM.InterleaveBytes <= 0 {
		return fmt.Errorf("%w: %q: DRAM geometry %+v", ErrInvalidConfig, c.Name, c.DRAM)
	}
	if c.CoreParallel < 0 {
		return fmt.Errorf("%w: %q: CoreParallel=%d (want >= 0: 0 = environment default, 1 = serial, n = n workers)",
			ErrInvalidConfig, c.Name, c.CoreParallel)
	}
	return nil
}

// NvidiaConfig returns the Table 5 Nvidia-style configuration: 16 SMs, 1024
// threads per SM, 32-wide warps, 16 KB 4-way L1, 64-entry fully-associative
// L1 TLB, 2 MB 16-way shared L2, 1024-entry 32-way shared L2 TLB, 16-channel
// FR-FCFS DRAM.
func NvidiaConfig() Config {
	return Config{
		Name:              "nvidia",
		Cores:             16,
		WarpWidth:         32,
		MaxThreadsPerCore: 1024,
		MaxWGsPerCore:     8,
		L1D: memsys.CacheConfig{
			Name: "L1D", SizeBytes: 16 << 10, LineBytes: 128, Ways: 4, HitLatency: 28,
		},
		L1TLB: memsys.TLBConfig{
			Name: "L1TLB", Entries: 64, Ways: 64, PageBytes: 4096,
		},
		L2: memsys.CacheConfig{
			Name: "L2", SizeBytes: 2 << 20, LineBytes: 128, Ways: 16, HitLatency: 90,
		},
		L2TLB: memsys.TLBConfig{
			Name: "L2TLB", Entries: 1024, Ways: 32, PageBytes: 4096,
		},
		DRAM:          memsys.DefaultDRAMConfig(),
		ALULatency:    4,
		MulLatency:    6,
		SFULatency:    20,
		SharedLatency: 24,
		L2Latency:     90,
		L2TLBLatency:  20,
		PageWalk:      200,
		EnableBCU:     false,
		BCU:           core.DefaultBCUConfig(),
	}
}

// IntelConfig returns the Table 5 Intel-style configuration: 24 cores with
// 7 hardware threads each, SIMD16 execution, 32 KB 4-way L1, shared 2 MB L2.
func IntelConfig() Config {
	c := NvidiaConfig()
	c.Name = "intel"
	c.Cores = 24
	c.WarpWidth = 16
	c.MaxThreadsPerCore = 7 * 16
	c.MaxWGsPerCore = 4
	c.L1D = memsys.CacheConfig{
		Name: "L1D", SizeBytes: 32 << 10, LineBytes: 64, Ways: 4, HitLatency: 24,
	}
	return c
}

// WithShield returns a copy of c with GPUShield enabled using bcu.
func (c Config) WithShield(bcu core.BCUConfig) Config {
	c.EnableBCU = true
	c.BCU = bcu
	return c
}
