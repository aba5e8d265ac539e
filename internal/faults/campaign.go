package faults

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"gpushield/internal/core"
	"gpushield/internal/driver"
	"gpushield/internal/kernel"
	"gpushield/internal/pool"
	"gpushield/internal/randsrc"
	"gpushield/internal/sim"
)

// Config parameterizes a campaign: the GPU the reference kernel runs on, the
// protection mode, the workload geometry, and the master seed every stream
// of randomness derives from.
type Config struct {
	GPU   sim.Config
	Mode  driver.Mode
	Grid  int
	Block int
	Seed  int64
	// Parallel bounds the injection worker pool; <= 0 means one worker per
	// CPU. Every injection builds a private device + GPU and derives its
	// randomness from (Seed, index), so any pool width classifies a
	// campaign identically to the serial replay.
	Parallel int
}

// DefaultConfig returns the standard campaign setup: the Nvidia preset with
// GPUShield enabled in FailLog mode, a 2×128-thread reference kernel, and a
// watchdog so a fault that wedges the pipeline cannot hang the campaign.
func DefaultConfig() Config {
	g := sim.NvidiaConfig().WithShield(core.DefaultBCUConfig())
	g.MaxCycles = 2_000_000
	return Config{GPU: g, Mode: driver.ModeShield, Grid: 2, Block: 128, Seed: 0x5EED}
}

// elems returns the workload element count (one element per thread).
func (c Config) elems() int { return c.Grid * c.Block }

// Workload shape. refInputs input buffers plus one output give the launch
// more buffer IDs than the 4-entry L1 RCache holds, so the FIFO thrashes and
// the L2 RCache stays on the hot path for the whole run — corruption in
// either level faces live checks. refIters repeats every thread's accesses,
// spreading checks across the run so cycle-targeted faults (RCache slots,
// the key register) land while checks remain.
const (
	refInputs = 5
	refArgs   = refInputs + 1
	refIters  = 8
)

// refKernel builds the reference workload
//
//	y[i] = 3*x0[i] + 1 + x1[i] + ... + x4[i]
//
// over refInputs protected read-only inputs and one output, repeated
// refIters times per thread. Every access is in bounds, so any alarm is
// attributable to the injected fault.
func refKernel() *kernel.Kernel {
	b := kernel.NewBuilder("fault-ref")
	px := make([]kernel.Operand, refInputs)
	for j := range px {
		px[j] = b.BufferParam(fmt.Sprintf("x%d", j), true)
	}
	py := b.BufferParam("y", false)
	tid := b.GlobalTID()
	b.ForRange(kernel.Imm(0), kernel.Imm(refIters), kernel.Imm(1), func(kernel.Operand) {
		v := b.LoadGlobal(b.AddScaled(px[0], tid, 4), 4)
		acc := b.Add(b.Mul(v, kernel.Imm(3)), kernel.Imm(1))
		for j := 1; j < refInputs; j++ {
			acc = b.Add(acc, b.LoadGlobal(b.AddScaled(px[j], tid, 4), 4))
		}
		b.StoreGlobal(b.AddScaled(py, tid, 4), acc, 4)
	})
	k, err := b.Build()
	if err != nil {
		panic(fmt.Sprintf("faults: reference kernel: %v", err))
	}
	return k
}

// xValue is the deterministic content of input buffer j.
func xValue(j, i int) uint32 { return uint32(i*7 + 3 + 11*j) }

// golden is the expected output element.
func golden(i int) uint32 {
	y := 3*xValue(0, i) + 1
	for j := 1; j < refInputs; j++ {
		y += xValue(j, i)
	}
	return y
}

// DefaultCampaign draws n FaultSpecs from seed, cycling through every fault
// class so each gets ~n/10 injections. Bit positions, cycles, victims, and
// probabilities come from the seeded stream; the same (seed, n) always
// yields the same campaign.
func DefaultCampaign(seed int64, n int) []FaultSpec {
	rng := rand.New(randsrc.New(seed))
	specs := make([]FaultSpec, 0, n)
	for i := 0; i < n; i++ {
		t := Target(i % numTargets)
		s := FaultSpec{Target: t, Index: rng.Intn(1 << 16)}
		switch t {
		case TargetRBTEntry:
			switch r := rng.Intn(10); {
			case r < 6:
				s.BitMask = 1 << uint(rng.Intn(48)) // base address bit
			case r < 7:
				s.BitMask = 1 << 62 // read-only flag
			case r < 8:
				s.BitMask = 1 << 63 // valid flag
			default:
				s.SizeMask = 1 << uint(rng.Intn(32))
			}
		case TargetRCacheL1, TargetRCacheL2:
			s.Cycle = uint64(rng.Intn(2000))
			switch r := rng.Intn(10); {
			case r < 6:
				s.BitMask = 1 << uint(rng.Intn(48)) // cached base bit
			case r < 8:
				s.IDMask = uint16(1) << uint(rng.Intn(core.PayloadBits))
			default:
				s.SizeMask = 1 << uint(rng.Intn(32))
			}
		case TargetKey:
			s.Cycle = uint64(rng.Intn(2000))
			s.BitMask = 1 << uint(rng.Intn(64))
		case TargetPointerTag:
			s.BitMask = 1 << uint(48+rng.Intn(16)) // class/payload bits
		case TargetTxDrop, TargetTxDup:
			s.Probability = 0.01 + 0.09*rng.Float64()
		}
		specs = append(specs, s)
	}
	return specs
}

// RunCampaign executes every spec against a fresh device + GPU and returns
// the per-injection results in spec order.
func RunCampaign(cfg Config, specs []FaultSpec) ([]Result, error) {
	return RunCampaignContext(context.Background(), cfg, specs)
}

// RunCampaignContext is RunCampaign under a context: cancellation stops
// dispatching new injections and aborts the in-flight ones (each injection
// run observes the same context inside the simulator), returning the
// context's cause. A panicking injection is contained by the pool and
// surfaces as that injection's error rather than killing the campaign.
func RunCampaignContext(ctx context.Context, cfg Config, specs []FaultSpec) ([]Result, error) {
	if err := cfg.GPU.Validate(); err != nil {
		return nil, err
	}
	if !cfg.GPU.EnableBCU {
		return nil, fmt.Errorf("faults: campaign requires EnableBCU (nothing can be detected without it)")
	}
	if cfg.Grid <= 0 || cfg.Block <= 0 {
		return nil, fmt.Errorf("faults: bad workload geometry %dx%d", cfg.Grid, cfg.Block)
	}
	out := make([]Result, len(specs))
	err := pool.ForEachErrCtx(ctx, cfg.Parallel, len(specs), func(i int) error {
		r, err := contained(ctx, cfg, specs[i], i)
		if err != nil {
			return fmt.Errorf("faults: injection %d (%s): %w", i, specs[i], err)
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// contained runs one injection with panic containment. An injected fault
// that crashes the simulator itself is the strongest possible detection —
// the standard fault-injection convention counts crashes as detected — so a
// panic is classified as that injection's Detected outcome (panic value in
// Detail) instead of killing the campaign. Harness errors (bad config,
// cancellation) still propagate as errors.
func contained(ctx context.Context, cfg Config, spec FaultSpec, idx int) (res Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			res = Result{
				Index: idx, Spec: spec, Outcome: Detected, Landed: true,
				Detail: fmt.Sprintf("crash: panic: %v", v),
			}
			err = nil
		}
	}()
	return runInjection(ctx, cfg, spec, idx)
}

// runInjection is the injection entry point behind contained; tests swap it
// to exercise the containment path with a deliberately panicking run.
var runInjection = runOne

// runOne performs a single injection: build a fresh device and GPU, arm the
// fault, run the reference kernel, and classify the outcome.
func runOne(ctx context.Context, cfg Config, spec FaultSpec, idx int) (Result, error) {
	res := Result{Index: idx, Spec: spec}
	rng := rand.New(randsrc.New(cfg.Seed ^ (int64(idx)+1)*0x9E3779B9))
	dev := driver.NewDevice(cfg.Seed + int64(idx))
	gpu, err := sim.NewGPU(cfg.GPU, dev)
	if err != nil {
		return res, err
	}

	n := cfg.elems()
	bufs := make([]*driver.Buffer, refArgs)
	args := make([]driver.Arg, refArgs)
	for j := 0; j < refInputs; j++ {
		bufs[j] = dev.Malloc(fmt.Sprintf("x%d", j), uint64(n)*4, true)
		for i := 0; i < n; i++ {
			dev.WriteUint32(bufs[j], i, xValue(j, i))
		}
		args[j] = driver.BufArg(bufs[j])
	}
	y := dev.Malloc("y", uint64(n)*4, false)
	bufs[refInputs] = y
	args[refInputs] = driver.BufArg(y)

	landed := false
	// Driver-bug faults mutate the launch inside the driver itself.
	switch spec.Target {
	case TargetDriverStaleID:
		dev.SetLaunchMutator(func(l *driver.Launch) {
			ai := spec.Index % refArgs
			if core.Class(l.Args[ai]) != core.ClassID {
				return
			}
			for id := uint16(1); id < core.NumIDs; id++ {
				if !l.RBT.Lookup(id).Valid() {
					l.Args[ai] = core.MakePointer(core.ClassID, core.EncryptID(id, l.Key), core.Addr(l.Args[ai]))
					landed = true
					return
				}
			}
		})
	case TargetDriverDupID:
		dev.SetLaunchMutator(func(l *driver.Launch) {
			ai := spec.Index % refArgs
			bi := (ai + 1) % refArgs
			if core.Class(l.Args[ai]) != core.ClassID || core.Class(l.Args[bi]) != core.ClassID {
				return
			}
			l.Args[ai] = core.MakePointer(core.ClassID, core.Payload(l.Args[bi]), core.Addr(l.Args[ai]))
			landed = true
		})
	case TargetDriverRBTOmit:
		dev.SetLaunchMutator(func(l *driver.Launch) {
			id, ok := l.BufferIDs[spec.Index%refArgs]
			if !ok || !l.RBT.Lookup(id).Valid() {
				return
			}
			l.RBT.Corrupt(id, 1<<63, 0) // clear the valid flag
			var zero [core.BoundsEntryBytes]byte
			dev.Mem.WriteBytes(core.EntryAddr(l.RBTBase, id), zero[:])
			landed = true
		})
	}

	k := refKernel()
	launch, err := dev.PrepareLaunch(k, cfg.Grid, cfg.Block, args, cfg.Mode, nil)
	if err != nil {
		return res, err
	}
	dev.SetLaunchMutator(nil)

	// Launch-state and runtime faults arm here.
	switch spec.Target {
	case TargetRBTEntry:
		id := launch.BufferIDs[spec.Index%refArgs]
		if launch.RBT.Corrupt(id, spec.BitMask, spec.SizeMask) {
			landed = true
			var buf [core.BoundsEntryBytes]byte
			launch.RBT.Lookup(id).EncodeTo(buf[:])
			dev.Mem.WriteBytes(core.EntryAddr(launch.RBTBase, id), buf[:])
		}
	case TargetPointerTag:
		launch.Args[spec.Index%refArgs] ^= spec.BitMask
		landed = true
	case TargetRCacheL1, TargetRCacheL2:
		level := 1
		if spec.Target == TargetRCacheL2 {
			level = 2
		}
		kid := launch.KernelID
		cores := cfg.GPU.Cores
		entries := cfg.GPU.BCU.L1Entries
		if level == 2 {
			entries = cfg.GPU.BCU.L2Entries
		}
		gpu.SetCycleHook(func(now uint64) {
			if landed || now < spec.Cycle {
				return
			}
			// Scan cores and slots from the spec's victim until an occupied
			// slot takes the flip; retry next cycle while caches are cold.
			for c := 0; c < cores; c++ {
				bcu := gpu.BCU((spec.Index + c) % cores)
				if bcu == nil {
					continue
				}
				for s := 0; s < entries; s++ {
					if bcu.CorruptRCache(level, kid, (spec.Index+s)%entries,
						spec.IDMask, spec.BitMask, spec.SizeMask) {
						landed = true
						return
					}
				}
			}
		})
	case TargetKey:
		kid := launch.KernelID
		cores := cfg.GPU.Cores
		gpu.SetCycleHook(func(now uint64) {
			if landed || now < spec.Cycle {
				return
			}
			// Perturb a core that has performed checks — a key register on a
			// core the kernel never reached is architecturally dead state.
			for c := 0; c < cores; c++ {
				bcu := gpu.BCU((spec.Index + c) % cores)
				if bcu != nil && bcu.Stats.Checks > 0 && bcu.PerturbKey(kid, spec.BitMask) {
					landed = true
					return
				}
			}
		})
	case TargetTxDrop, TargetTxDup:
		drop := spec.Target == TargetTxDrop
		gpu.SetTxFault(func(now uint64, addr uint64, isStore bool) sim.TxVerdict {
			if rng.Float64() >= spec.Probability {
				return sim.TxVerdict{}
			}
			landed = true
			if drop {
				return sim.TxVerdict{Drop: true}
			}
			return sim.TxVerdict{Dup: true}
		})
	}

	rep, rerr := gpu.RunCtx(ctx, launch)
	if rerr != nil && errors.Is(rerr, sim.ErrCanceled) {
		// Cancellation is not a fault outcome: surface it instead of
		// classifying a half-run injection as detected or masked.
		return res, rerr
	}

	outputOK := true
	for i := 0; i < n; i++ {
		if dev.ReadUint32(y, i) != golden(i) {
			outputOK = false
			break
		}
	}
	res.Landed = landed
	res.Outcome = Classify(rep, rerr, outputOK)
	switch {
	case rerr != nil:
		res.Detail = rerr.Error()
	case rep != nil && rep.Aborted:
		res.Detail = rep.AbortMsg
	case rep != nil && len(rep.Violations) > 0:
		res.Detail = rep.Violations[0].String()
	}
	return res, nil
}
