package sim

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"gpushield/internal/compiler"
	"gpushield/internal/core"
	"gpushield/internal/driver"
	"gpushield/internal/kernel"
)

// buildResetKernel touches every piece of run state a reset must clear:
// Method-C loads (Type-3 checks under static filtering), a local variable,
// shared memory behind a barrier, same-address atomics, and a store whose
// index the scalar shift pushes out of bounds.
func buildResetKernel(t testing.TB) *kernel.Kernel {
	t.Helper()
	b := kernel.NewBuilder("resetmix")
	p := b.BufferParam("p", false)
	q := b.BufferParam("q", true)
	shift := b.ScalarParam("shift")
	spill := b.Local("spill", 8)
	sh := b.Shared(128 * 4)
	tid := b.TID()
	gtid := b.GlobalTID()
	acc := b.Mov(gtid)
	b.ForRange(kernel.Imm(0), kernel.Imm(6), kernel.Imm(1), func(i kernel.Operand) {
		ofs := b.Mul(b.And(b.Add(gtid, i), kernel.Imm(255)), kernel.Imm(4))
		b.MovTo(acc, b.Add(acc, b.LoadGlobalOfs(q, ofs, 4)))
	})
	b.StoreLocal(spill, kernel.Imm(0), acc, 4)
	b.StoreShared(b.AddScaled(kernel.Imm(sh), b.And(tid, kernel.Imm(127)), 4), b.LoadLocal(spill, kernel.Imm(0), 4), 4)
	b.Barrier()
	sv := b.LoadShared(b.AddScaled(kernel.Imm(sh), b.And(b.Add(tid, kernel.Imm(1)), kernel.Imm(127)), 4), 4)
	b.AtomAddGlobal(b.AddScaled(p, b.And(gtid, kernel.Imm(15)), 4), kernel.Imm(1), 4)
	b.StoreGlobal(b.AddScaled(p, b.Add(gtid, shift), 4), sv, 4)
	return b.MustBuild()
}

const (
	resetPWords = 1024 // p holds 4 KB
	resetQBytes = 1024
)

// resetLaunch prepares one launch of buildResetKernel.
func resetLaunch(t testing.TB, dev *driver.Device, k *kernel.Kernel, p, q *driver.Buffer, mode driver.Mode, grid, block int, shift int64) *driver.Launch {
	t.Helper()
	args := []driver.Arg{driver.BufArg(p), driver.BufArg(q), driver.ScalarArg(shift)}
	var an *compiler.Analysis
	if mode == driver.ModeShieldStatic {
		var err error
		an, err = compiler.Analyze(k, compiler.LaunchInfo{
			Block: block, Grid: grid,
			BufferBytes: []uint64{p.Size, q.Size, 0},
			ScalarVal:   []int64{0, 0, shift},
			ScalarKnown: []bool{false, false, true},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	l, err := dev.PrepareLaunch(k, grid, block, args, mode, an)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// resetBuffers allocates and fills the two buffers of buildResetKernel.
func resetBuffers(dev *driver.Device) (p, q *driver.Buffer) {
	p = dev.Malloc("p", resetPWords*4, false)
	q = dev.Malloc("q", resetQBytes, true)
	for i := 0; i < resetQBytes/4; i++ {
		dev.WriteUint32(q, i, uint32(i*2654435761))
	}
	return p, q
}

// dirtyPair drives dev and gpu through everything a reset must undo:
// random launches in all three modes with violations, every driver setter,
// key and RCache corruption from a cycle hook, the page census, a changed
// watchdog, concurrent launches, a BCU fault or violation that no run
// harvests, and finally a cycle-hook panic that leaves a launch resident.
func dirtyPair(t *testing.T, k *kernel.Kernel, dev *driver.Device, gpu *GPU) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	p, q := resetBuffers(dev)
	dev.MallocManaged("svm", 3000)
	dev.SetRBTRecycle(true)
	dev.SetHeapLimit(1 << 20)
	if _, err := dev.DeviceMalloc(256); err != nil {
		t.Fatal(err)
	}
	dev.SetFineGrainedHeap(true)
	dev.SetIDBudget(8)
	dev.SetLaunchMutator(func(*driver.Launch) {})
	gpu.TrackPages(true)
	gpu.SetMaxCycles(1 << 40)
	gpu.SetTxFault(func(uint64, uint64, bool) TxVerdict { return TxVerdict{} })

	// Grids of more than eight workgroups spill past core 0, so several
	// cores step at once and the parallel scheduler's intents fill.
	modes := []driver.Mode{driver.ModeOff, driver.ModeShield, driver.ModeShieldStatic}
	for i := 0; i < 8; i++ {
		l := resetLaunch(t, dev, k, p, q, modes[rng.Intn(3)], 1+rng.Intn(24), 32*(1+rng.Intn(4)), []int64{0, 8, 300}[rng.Intn(3)])
		if _, err := gpu.Run(l); err != nil {
			t.Fatal(err)
		}
	}

	// Two launches sharing every core: once the second runs out of
	// workgroups, each dispatch of the first leaves a core's round-robin
	// cursor at 1, and nothing later places work on cores 3 and up. RBT
	// recycling allows one prepared launch at a time, so it is switched off
	// for the pair.
	dev.SetRBTRecycle(false)
	pair := []*driver.Launch{
		resetLaunch(t, dev, k, p, q, driver.ModeShield, 60, 128, 300),
		resetLaunch(t, dev, k, p, q, driver.ModeShield, 10, 128, 0),
	}
	if _, err := gpu.RunConcurrent(pair, ShareIntraCore); err != nil {
		t.Fatal(err)
	}
	dev.SetRBTRecycle(true)

	// Corrupt the installed key and RCache slots mid-run, as fault
	// campaigns do.
	l := resetLaunch(t, dev, k, p, q, driver.ModeShield, 4, 128, 8)
	corrupted := false
	start := gpu.Now()
	gpu.SetCycleHook(func(now uint64) {
		if now-start >= 400 && !corrupted {
			corrupted = true
			for _, c := range gpu.cores {
				if c.bcu != nil {
					c.bcu.CorruptRCache(1, l.KernelID, 0, 1, 0, 0x10)
					c.bcu.CorruptRCache(2, l.KernelID, 0, 1, 0, 0x10)
					c.bcu.PerturbKey(l.KernelID, 0x5A5A)
				}
			}
		}
	})
	if _, err := gpu.Run(l); err != nil || !corrupted {
		t.Fatalf("corrupting run: err %v, corrupted %v", err, corrupted)
	}

	// A check for a kernel that is never installed: FailLog keeps the
	// record in the log, FailFault latches the fault. No run harvests
	// kernel 0.
	if bcu := gpu.BCU(3); bcu != nil {
		bcu.Check(core.CheckRequest{KernelID: 0, Pointer: core.MakePointer(core.ClassID, 1, 0x1000), MinAddr: 0x1000, MaxAddr: 0x1003, PC: 7})
	}

	// A hook panic mid-run leaves workgroups resident on cores 0-2, the
	// kernel installed, RCaches warm and atomic reservations pending.
	l = resetLaunch(t, dev, k, p, q, driver.ModeShield, 24, 128, 300)
	start = gpu.Now()
	gpu.SetCycleHook(func(now uint64) {
		if now-start >= 1500 && len(gpu.atomicBusy) > 0 {
			panic("injected mid-run fault")
		}
	})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("cycle hook did not panic: the launch finished first")
			}
		}()
		_, _ = gpu.Run(l)
	}()
}

// assertDirty checks dirtyPair's premises: the state that only some paths
// through it reach must really be dirty, or a reset that forgot it would
// still pass.
func assertDirty(t *testing.T, gpu *GPU) {
	t.Helper()
	var resident, lastWarp, rrRun, intent bool
	for _, c := range gpu.cores {
		resident = resident || len(c.wgs) > 0
		lastWarp = lastWarp || c.lastWarp != 0
		rrRun = rrRun || c.rrRun != 0
		intent = intent || c.intent.w != nil
	}
	switch {
	case !resident, !lastWarp, !rrRun:
		t.Fatalf("premise: resident %v, lastWarp %v, rrRun %v", resident, lastWarp, rrRun)
	case gpu.coreWidth > 1 && !intent:
		t.Fatal("premise: no parallel-scheduler intent left")
	case len(gpu.atomicBusy) == 0:
		t.Fatal("premise: no atomic reservation pending")
	}
}

// runResetSequence is the launch sequence compared between a reset pair and
// a fresh one: every mode, in-bounds and out-of-bounds, and one concurrent
// pair. It returns the reports (and errors) as JSON.
func runResetSequence(t *testing.T, k *kernel.Kernel, dev *driver.Device, gpu *GPU) []byte {
	t.Helper()
	p, q := resetBuffers(dev)
	type record struct {
		Stats []*LaunchStats
		Err   string
	}
	var recs []record
	add := func(st []*LaunchStats, err error) {
		r := record{Stats: st}
		if err != nil {
			r.Err = err.Error()
		}
		recs = append(recs, r)
	}
	for _, s := range []struct {
		mode        driver.Mode
		grid, block int
		shift       int64
	}{
		{driver.ModeOff, 2, 64, 0},
		{driver.ModeShield, 3, 128, 300},
		{driver.ModeShieldStatic, 4, 96, 0},
		{driver.ModeShieldStatic, 2, 64, 900},
		{driver.ModeShield, 1, 32, 5000},
		{driver.ModeOff, 6, 128, 8},
	} {
		st, err := gpu.Run(resetLaunch(t, dev, k, p, q, s.mode, s.grid, s.block, s.shift))
		add([]*LaunchStats{st}, err)
	}
	add(gpu.RunConcurrent([]*driver.Launch{
		resetLaunch(t, dev, k, p, q, driver.ModeShield, 3, 64, 300),
		resetLaunch(t, dev, k, p, q, driver.ModeShieldStatic, 2, 128, 0),
	}, ShareInterCore))
	out, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// resetKeeps names the fields a reset leaves as they are because their
// contents are dead between runs: allocations kept for reuse and scratch
// that every use overwrites first. BCU.gen is checked on its own.
var resetKeeps = map[string]bool{
	"GPU.runPool":          true, // parked run shells
	"GPU.allowed":          true, // per-core dispatch lists, emptied after each run
	"coreState.wgPool":     true, // workgroup arena
	"coreState.rowScratch": true, // ALU broadcast and partial-write scratch
	"coreState.sPrep":      true, // memory-instruction scratch
	"Backing.free":         true, // chunks kept for reuse, zeroed before any use
	"BCU.gen":              true, // moves forward on reset, never back
}

// stateDiff walks a and b field by field, unexported fields included, and
// returns the path of the first difference, or "" when they match. Slices
// compare by length and elements (capacity is an allocation, not state),
// maps by contents, funcs by nil-ness and pointers by what they point to.
// Fields named in resetKeeps are not compared.
func stateDiff(a, b any) string {
	return diffValues(reflect.ValueOf(a), reflect.ValueOf(b), reflect.TypeOf(a).String(), map[[2]uintptr]bool{})
}

func diffValues(a, b reflect.Value, path string, seen map[[2]uintptr]bool) string {
	if a.Type() != b.Type() {
		return path + fmt.Sprintf(" (type %s vs %s)", a.Type(), b.Type())
	}
	differ := func(x, y any) string { return fmt.Sprintf("%s (%v vs %v)", path, x, y) }
	switch a.Kind() {
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return differ(a.Bool(), b.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return differ(a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			return differ(a.Uint(), b.Uint())
		}
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return differ(a.Float(), b.Float())
		}
	case reflect.String:
		if a.String() != b.String() {
			return differ(a.String(), b.String())
		}
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			if d := diffValues(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i), seen); d != "" {
				return d
			}
		}
	case reflect.Slice:
		if a.Len() != b.Len() {
			return path + fmt.Sprintf(" (len %d vs %d)", a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := diffValues(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i), seen); d != "" {
				return d
			}
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			return path + fmt.Sprintf(" (len %d vs %d)", a.Len(), b.Len())
		}
		for it := a.MapRange(); it.Next(); {
			bv := b.MapIndex(it.Key())
			if !bv.IsValid() {
				return fmt.Sprintf("%s[%v] (missing)", path, it.Key())
			}
			if d := diffValues(it.Value(), bv, fmt.Sprintf("%s[%v]", path, it.Key()), seen); d != "" {
				return d
			}
		}
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return differ(a.IsNil(), b.IsNil())
			}
			return ""
		}
		key := [2]uintptr{a.Pointer(), b.Pointer()}
		if seen[key] {
			return ""
		}
		seen[key] = true
		return diffValues(a.Elem(), b.Elem(), path, seen)
	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return differ(a.IsNil(), b.IsNil())
			}
			return ""
		}
		return diffValues(a.Elem(), b.Elem(), path, seen)
	case reflect.Func, reflect.Chan, reflect.UnsafePointer:
		if a.IsNil() != b.IsNil() {
			return differ(a.IsNil(), b.IsNil())
		}
	case reflect.Struct:
		t := a.Type()
		for i := 0; i < t.NumField(); i++ {
			name := t.Name() + "." + t.Field(i).Name
			if resetKeeps[name] {
				continue
			}
			if d := diffValues(a.Field(i), b.Field(i), path+"."+t.Field(i).Name, seen); d != "" {
				return d
			}
		}
	default:
		return path + ": unhandled kind " + a.Kind().String()
	}
	return ""
}

// bcuGens reads every core's BCU generation counter.
func bcuGens(g *GPU) []uint64 {
	var gens []uint64
	for _, c := range g.cores {
		if c.bcu != nil {
			gens = append(gens, reflect.ValueOf(c.bcu).Elem().FieldByName("gen").Uint())
		}
	}
	return gens
}

// TestResetMatchesFresh dirties a device + GPU pair, resets it, and checks
// that it equals a freshly built pair field by field and then behaves
// byte-identically over one launch sequence: reports, device memory, BCU
// statistics and the clock.
func TestResetMatchesFresh(t *testing.T) {
	k := buildResetKernel(t)
	for _, tc := range []struct {
		name  string
		bcu   bool
		mode  core.FailureMode
		width int
	}{
		{"shield-log-width2", true, core.FailLog, 2},
		{"shield-fault-width1", true, core.FailFault, 1},
		{"no-bcu", false, core.FailLog, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := NvidiaConfig()
			if tc.bcu {
				cfg = cfg.WithShield(core.DefaultBCUConfig())
				cfg.BCU.Mode = tc.mode
			}
			cfg.CoreParallel = tc.width

			dev := driver.NewDevice(11)
			gpu := New(cfg, dev)
			dirtyPair(t, k, dev, gpu)
			assertDirty(t, gpu)
			gens := bcuGens(gpu)

			dev.Reset(99)
			gpu.Reset()
			freshDev := driver.NewDevice(99)
			fresh := New(cfg, freshDev)
			if d := stateDiff(gpu, fresh); d != "" {
				t.Fatalf("reset pair differs from a fresh one at %s", d)
			}
			for i, g := range bcuGens(gpu) {
				if g <= gens[i] {
					t.Fatalf("BCU %d generation went from %d to %d on reset; it must only move forward", i, gens[i], g)
				}
			}

			got := runResetSequence(t, k, dev, gpu)
			want := runResetSequence(t, k, freshDev, fresh)
			if string(got) != string(want) {
				t.Fatalf("launch reports differ after reset\n got: %s\nwant: %s", got, want)
			}
			if gpu.Now() != fresh.Now() {
				t.Fatalf("Now() = %d after reset, %d fresh", gpu.Now(), fresh.Now())
			}
			if d := stateDiff(dev.Mem, freshDev.Mem); d != "" {
				t.Fatalf("device memory differs at %s", d)
			}
			for i := range gpu.cores {
				if a, b := gpu.BCU(i), fresh.BCU(i); a != nil && a.Stats != b.Stats {
					t.Fatalf("core %d BCU stats differ: %+v vs %+v", i, a.Stats, b.Stats)
				}
			}
		})
	}
}
