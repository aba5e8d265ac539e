package driver

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"gpushield/internal/compiler"
	"gpushield/internal/core"
	"gpushield/internal/kernel"
)

// Regenerate with: go test ./internal/driver -run TestPrepareLaunchGolden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite the golden PrepareLaunch file")

// preparedLaunch is what TestPrepareLaunchGolden records of one launch: the
// drawn IDs and key, the tagged values, the static-filtering sets, and a
// hash of the RBT bytes written to device memory.
type preparedLaunch struct {
	Name          string
	KernelID      uint16
	Key           uint64
	Args          []uint64
	BufferIDs     [][2]int
	LocalPtrs     []uint64
	HeapPtr       uint64
	HeapChunkPtrs []uint64
	SkipCheck     []int
	Type3Instr    []int
	RBTBase       uint64
	RBTSHA256     string
}

func sortedPCs(m map[int]bool) []int {
	var pcs []int
	for pc, on := range m {
		if on {
			pcs = append(pcs, pc)
		}
	}
	sort.Ints(pcs)
	return pcs
}

func recordLaunch(name string, d *Device, l *Launch) preparedLaunch {
	r := preparedLaunch{
		Name: name, KernelID: l.KernelID, Key: l.Key, Args: l.Args,
		LocalPtrs: l.LocalPtrs, HeapPtr: l.HeapPtr, HeapChunkPtrs: l.HeapChunkPtrs,
		SkipCheck: sortedPCs(l.SkipCheck), Type3Instr: sortedPCs(l.Type3Instr),
		RBTBase: l.RBTBase,
	}
	for i, id := range l.BufferIDs {
		r.BufferIDs = append(r.BufferIDs, [2]int{i, int(id)})
	}
	sort.Slice(r.BufferIDs, func(a, b int) bool { return r.BufferIDs[a][0] < r.BufferIDs[b][0] })
	sum := sha256.Sum256(d.Mem.ReadBytes(l.RBTBase, core.NumIDs*core.BoundsEntryBytes))
	r.RBTSHA256 = hex.EncodeToString(sum[:])
	return r
}

// goldenStaticKernel has statically safe accesses, a Method-C access through
// a parameter the analysis can give a Type-3 pointer, and a local variable.
func goldenStaticKernel() *kernel.Kernel {
	b := kernel.NewBuilder("prep-static")
	in := b.BufferParam("in", true)
	out := b.BufferParam("out", false)
	pad := b.BufferParam("pad", false)
	n := b.ScalarParam("n")
	b.Local("tmp", 16)
	gtid := b.GlobalTID()
	b.If(b.SetLT(gtid, n), func() {
		v := b.LoadGlobal(b.AddScaled(in, gtid, 4), 4)
		b.StoreGlobal(b.AddScaled(out, gtid, 4), v, 4)
		w := b.LoadGlobalOfs(pad, b.Mul(b.LoadGlobal(b.AddScaled(in, gtid, 4), 4), kernel.Imm(4)), 4)
		b.StoreGlobalOfs(pad, b.Mul(gtid, kernel.Imm(4)), w, 4)
	})
	return b.MustBuild()
}

// TestPrepareLaunchGolden locks what PrepareLaunch draws and writes — IDs,
// keys, tagged arguments, static-filtering sets and RBT bytes — against a
// golden recorded before the launch path dropped its per-launch maps:
// shield and static launches in sequence on one device, and a fine-grained
// heap whose 70 chunks each draw an ID.
func TestPrepareLaunchGolden(t *testing.T) {
	var recs []preparedLaunch
	{
		d := NewDevice(31)
		const n = 300
		in := d.Malloc("in", n*4, true)
		out := d.Malloc("out", n*4, false)
		pad := d.Malloc("pad", 1024, false)
		k := goldenStaticKernel()
		args := []Arg{BufArg(in), BufArg(out), BufArg(pad), ScalarArg(n)}
		an, err := compiler.Analyze(k, compiler.LaunchInfo{
			Block: 128, Grid: 3,
			BufferBytes: []uint64{n * 4, n * 4, 1024, 0},
			ScalarVal:   []int64{0, 0, 0, n},
			ScalarKnown: []bool{false, false, false, true},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, mode := range []Mode{ModeShield, ModeShieldStatic, ModeOff, ModeShieldStatic, ModeShield} {
			var a *compiler.Analysis
			if mode == ModeShieldStatic {
				a = an
			}
			l, err := d.PrepareLaunch(k, 3, 128, args, mode, a)
			if err != nil {
				t.Fatal(err)
			}
			if mode == ModeShieldStatic && (len(l.SkipCheck) == 0 || len(l.Type3Instr) == 0) {
				t.Fatalf("static launch %d sets SkipCheck %v and Type3Instr %v; the golden needs both", i, l.SkipCheck, l.Type3Instr)
			}
			recs = append(recs, recordLaunch(mode.String(), d, l))
		}
	}
	{
		d := NewDevice(32)
		d.SetFineGrainedHeap(true)
		d.SetHeapLimit(1 << 20)
		for i := 0; i < 70; i++ {
			if _, err := d.DeviceMalloc(uint64(64 + 16*i)); err != nil {
				t.Fatal(err)
			}
		}
		scratch := d.Malloc("scratch", 256, false)
		for _, mode := range []Mode{ModeShield, ModeOff} {
			l, err := d.PrepareLaunch(heapKernel(), 2, 64, []Arg{BufArg(scratch)}, mode, nil)
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, recordLaunch("fine-heap/"+mode.String(), d, l))
		}
	}

	got, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "golden_prepare.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to record): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("prepared launches differ from the golden\n got: %s\nwant: %s", got, want)
	}
}
