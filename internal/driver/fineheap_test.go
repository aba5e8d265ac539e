package driver

import (
	"errors"
	"testing"

	"gpushield/internal/core"
	"gpushield/internal/kernel"
)

func heapKernel() *kernel.Kernel {
	b := kernel.NewBuilder("heapuser")
	p := b.BufferParam("scratch", false)
	_ = p
	b.Exit()
	return b.MustBuild()
}

func TestFineGrainedHeapAssignsPerChunkIDs(t *testing.T) {
	dev := NewDevice(21)
	dev.SetFineGrainedHeap(true)
	dev.SetHeapLimit(1 << 16)
	a, err := dev.DeviceMalloc(128)
	if err != nil {
		t.Fatal(err)
	}
	bAddr, err := dev.DeviceMalloc(256)
	if err != nil {
		t.Fatal(err)
	}
	scratch := dev.Malloc("scratch", 64, false)
	l, err := dev.PrepareLaunch(heapKernel(), 1, 32, []Arg{BufArg(scratch)}, ModeShield, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.HeapChunkPtrs) != 2 {
		t.Fatalf("want 2 chunk pointers, got %d", len(l.HeapChunkPtrs))
	}
	// Each chunk pointer decrypts to an RBT entry bounding exactly that
	// chunk.
	for i, want := range []struct {
		base, size uint64
	}{{a, 128}, {bAddr, 256}} {
		ptr := l.HeapChunkPtrs[i]
		if core.Addr(ptr) != want.base {
			t.Fatalf("chunk %d pointer addr %#x, want %#x", i, core.Addr(ptr), want.base)
		}
		id := core.DecryptID(core.Payload(ptr), l.Key)
		bounds := l.RBT.Lookup(id)
		if !bounds.Valid() || bounds.Base() != want.base || uint64(bounds.Size()) != want.size {
			t.Fatalf("chunk %d bounds %+v, want base %#x size %d", i, bounds, want.base, want.size)
		}
	}
	// The two chunks must have distinct IDs.
	id0 := core.DecryptID(core.Payload(l.HeapChunkPtrs[0]), l.Key)
	id1 := core.DecryptID(core.Payload(l.HeapChunkPtrs[1]), l.Key)
	if id0 == id1 {
		t.Fatalf("chunks share an ID")
	}
}

func TestCoarseHeapHasNoChunkPointers(t *testing.T) {
	dev := NewDevice(22)
	dev.SetHeapLimit(1 << 16)
	if _, err := dev.DeviceMalloc(128); err != nil {
		t.Fatal(err)
	}
	scratch := dev.Malloc("scratch", 64, false)
	l, err := dev.PrepareLaunch(heapKernel(), 1, 32, []Arg{BufArg(scratch)}, ModeShield, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.HeapChunkPtrs) != 0 {
		t.Fatalf("coarse mode should not emit chunk pointers")
	}
	if len(dev.HeapChunks()) != 1 {
		t.Fatalf("chunk record missing")
	}
}

// TestFineGrainedHeapExhaustsIDs fills the ID space with heap chunks: a
// launch that needs every one of the NumIDs-1 IDs gets them all, distinct,
// and one more chunk is reported as exhaustion instead of a hang.
func TestFineGrainedHeapExhaustsIDs(t *testing.T) {
	dev := NewDevice(23)
	dev.SetFineGrainedHeap(true)
	dev.SetHeapLimit(1 << 20)
	// One ID for the buffer argument and one for the coarse heap entry.
	for i := 0; i < core.NumIDs-3; i++ {
		if _, err := dev.DeviceMalloc(16); err != nil {
			t.Fatal(err)
		}
	}
	scratch := dev.Malloc("scratch", 64, false)
	args := []Arg{BufArg(scratch)}
	l, err := dev.PrepareLaunch(heapKernel(), 1, 32, args, ModeShield, nil)
	if err != nil {
		t.Fatalf("launch using every ID: %v", err)
	}
	if got := l.RBT.Len(); got != core.NumIDs-1 {
		t.Fatalf("RBT holds %d valid entries, want %d", got, core.NumIDs-1)
	}
	if _, err := dev.DeviceMalloc(16); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.PrepareLaunch(heapKernel(), 1, 32, args, ModeShield, nil); !errors.Is(err, ErrAllocExhausted) {
		t.Fatalf("launch needing %d IDs: want ErrAllocExhausted, got %v", core.NumIDs, err)
	}
}
