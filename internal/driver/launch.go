package driver

import (
	"fmt"
	"math"
	"sort"

	"gpushield/internal/compiler"
	"gpushield/internal/core"
	"gpushield/internal/kernel"
)

func f32bits(f float32) uint32 { return math.Float32bits(f) }
func f32from(b uint32) float32 { return math.Float32frombits(b) }

// Mode selects the protection configuration of a launch.
type Mode uint8

// Protection modes.
const (
	// ModeOff launches with no bounds checking (the paper's baseline).
	ModeOff Mode = iota
	// ModeShield enables GPUShield runtime bounds checking for every
	// protected access.
	ModeShield
	// ModeShieldStatic enables GPUShield with compiler-based static
	// filtering: statically proven accesses skip runtime checks and
	// Method-C accesses use Type-3 size-embedded pointers.
	ModeShieldStatic
)

func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeShield:
		return "shield"
	case ModeShieldStatic:
		return "shield+static"
	}
	return "mode?"
}

// Arg is one kernel argument: either a device buffer or a scalar value.
type Arg struct {
	Buffer *Buffer
	Scalar int64
}

// BufArg and ScalarArg are convenience constructors.
func BufArg(b *Buffer) Arg  { return Arg{Buffer: b} }
func ScalarArg(v int64) Arg { return Arg{Scalar: v} }

// Launch is a fully prepared kernel launch: the driver has assigned buffer
// IDs, built the RBT in device memory, generated the per-kernel key, and
// tagged every pointer argument. The simulator consumes it directly.
type Launch struct {
	Kernel *kernel.Kernel
	Grid   int // workgroups
	Block  int // threads per workgroup
	Mode   Mode

	Args       []uint64  // argument values as the kernel sees them
	ArgBuffers []*Buffer // parallel to Args; nil for scalars

	Locals []LocalRegion // per local variable, with interleaved layout

	KernelID uint16
	Key      uint64
	RBT      *core.RBT
	RBTBase  uint64

	// LocalPtrs[i] is the tagged base pointer of local variable i, as the
	// driver would place it in constant memory.
	LocalPtrs []uint64

	// Heap is the device heap region; HeapPtr is its tagged base pointer
	// used for device-malloc results.
	Heap    *Buffer
	HeapPtr uint64

	// HeapChunkPtrs holds one tagged pointer per device-malloc chunk when
	// fine-grained heap protection is enabled (§5.7 extension); empty under
	// the default coarse-grained heap.
	HeapChunkPtrs []uint64

	// SkipCheck marks memory instructions statically proven safe
	// (ModeShieldStatic): the BCU is bypassed, modeling Type-1 pointer use.
	// It is nil when no instruction is marked.
	SkipCheck map[int]bool
	// Type3Instr marks Method-C instructions checked against the
	// size embedded in a Type-3 pointer. It is nil when none is marked.
	Type3Instr map[int]bool

	// Analysis is the compiler result the launch was prepared with (nil in
	// ModeOff / ModeShield).
	Analysis *compiler.Analysis

	// BufferIDs records the ID assigned to each argument buffer (argument
	// index -> ID), exposed for tests and the attack scenarios.
	BufferIDs map[int]uint16

	// NoCoalesce disables the address coalescer for this launch: every
	// active lane issues its own memory transaction. Instrumentation-based
	// checkers (CUDA-MEMCHECK model) set this to reflect their per-thread
	// check traffic.
	NoCoalesce bool

	// Mailbox, when set, is an SVM buffer the BCU writes violation records
	// into as they happen, so the host can observe memory-safety errors
	// before the kernel finishes (§5.5.2's runtime-reporting option).
	// Layout: word 0 is the record count; each record is 4 words
	// {kind, pc, addr lo32, addr hi32}.
	Mailbox *Buffer
}

// TotalThreads returns Grid*Block.
func (l *Launch) TotalThreads() int { return l.Grid * l.Block }

// launchCounter provides kernel IDs; 12 bits per the RCache metadata.
var launchCounterBits = uint16(0xFFF)

// PrepareLaunch performs the driver's kernel-setup procedure (Fig. 9 steps
// 3-4): it assigns a random-but-unique 14-bit ID to every buffer argument,
// local variable, and the heap; writes the RBT into device memory; draws
// the per-kernel encryption key; and tags pointer arguments according to
// the mode and the static analysis.
func (d *Device) PrepareLaunch(k *kernel.Kernel, grid, block int, args []Arg, mode Mode, an *compiler.Analysis) (*Launch, error) {
	if k == nil {
		return nil, fmt.Errorf("%w: nil kernel", ErrInvalidLaunch)
	}
	if err := k.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidLaunch, err)
	}
	if len(args) != len(k.Params) {
		return nil, fmt.Errorf("%w: %s: %d args for %d params", ErrInvalidLaunch, k.Name, len(args), len(k.Params))
	}
	if grid <= 0 || block <= 0 {
		return nil, fmt.Errorf("%w: %s: bad launch geometry grid=%d block=%d", ErrInvalidLaunch, k.Name, grid, block)
	}
	for i, p := range k.Params {
		if p.Kind == kernel.ParamBuffer && args[i].Buffer == nil {
			return nil, fmt.Errorf("%w: %s: param %d (%s) needs a buffer", ErrInvalidLaunch, k.Name, i, p.Name)
		}
		if p.Kind == kernel.ParamScalar && args[i].Buffer != nil {
			return nil, fmt.Errorf("%w: %s: param %d (%s) is scalar", ErrInvalidLaunch, k.Name, i, p.Name)
		}
	}

	l := &Launch{
		Kernel:    k,
		Grid:      grid,
		Block:     block,
		Mode:      mode,
		KernelID:  uint16(d.rng.Intn(int(launchCounterBits))) + 1,
		Key:       d.rng.Uint64(),
		RBT:       core.NewRBT(),
		Analysis:  an,
		BufferIDs: make(map[int]uint16),
	}

	// Random-but-unique 14-bit ID assignment (§5.2.4). Every drawn ID gets a
	// valid RBT entry before the next draw, so the table is the set of IDs
	// in use. An exhausted ID space is reported instead of looping forever
	// looking for a free ID.
	var idErr error
	nextID := func() uint16 {
		if l.RBT.Len() >= core.NumIDs-1 {
			if idErr == nil {
				idErr = fmt.Errorf("%w: all %d buffer IDs in use", ErrAllocExhausted, core.NumIDs-1)
			}
			return 0
		}
		for {
			id := uint16(d.rng.Intn(core.NumIDs-1)) + 1
			if !l.RBT.Lookup(id).Valid() {
				return id
			}
		}
	}

	// Local variable regions.
	threads := grid * block
	for _, v := range k.Locals {
		l.Locals = append(l.Locals, LocalRegion{Name: v.Name, PerThread: v.Bytes, Threads: threads})
	}
	l.Locals = d.AllocLocal(l.Locals)

	// Decide per-parameter pointer classes.
	classes := d.paramClasses(k, args, mode, an)

	// Build the RBT and the tagged argument values. Arguments normally get
	// one entry each; under a constrained ID budget (§6.3) address-adjacent
	// buffers are merged into shared entries covering their union.
	l.Args = make([]uint64, len(args))
	l.ArgBuffers = make([]*Buffer, len(args))
	groups := d.groupArgs(k, args)
	for _, group := range groups {
		id := nextID()
		lo, hi := ^uint64(0), uint64(0)
		ro := true
		for _, i := range group {
			b := args[i].Buffer
			size := b.Size
			if classes[i] == core.ClassSize {
				size = b.Padded // Type-3 checks cover the power-of-two region
			}
			if b.Base < lo {
				lo = b.Base
			}
			if b.Base+size > hi {
				hi = b.Base + size
			}
			ro = ro && (b.ReadOnly || k.Params[i].ReadOnly)
		}
		if err := l.RBT.Set(id, core.NewBounds(lo, uint32(hi-lo), ro)); err != nil {
			return nil, err
		}
		for _, i := range group {
			b := args[i].Buffer
			l.ArgBuffers[i] = b
			l.BufferIDs[i] = id
			switch classes[i] {
			case core.ClassUnprotected:
				l.Args[i] = core.MakePointer(core.ClassUnprotected, 0, b.Base)
			case core.ClassSize:
				l.Args[i] = core.MakePointer(core.ClassSize, core.Log2Ceil(b.Padded), b.Base)
			default:
				l.Args[i] = core.MakePointer(core.ClassID, core.EncryptID(id, l.Key), b.Base)
			}
		}
	}
	for i, a := range args {
		if a.Buffer == nil {
			l.Args[i] = uint64(a.Scalar)
		}
	}

	// Local variables each get an RBT entry and a tagged constant-memory
	// base pointer.
	for i := range l.Locals {
		r := &l.Locals[i]
		id := nextID()
		if err := l.RBT.Set(id, core.NewBounds(r.Base, uint32(r.Size), false)); err != nil {
			return nil, err
		}
		ptr := core.MakePointer(core.ClassID, core.EncryptID(id, l.Key), r.Base)
		if mode == ModeOff {
			ptr = core.MakePointer(core.ClassUnprotected, 0, r.Base)
		}
		l.LocalPtrs = append(l.LocalPtrs, ptr)
	}

	// The heap is covered by a single coarse entry (§5.2.1) — or, with the
	// fine-grained extension enabled, by one entry per device-malloc chunk.
	l.Heap = d.Heap()
	heapID := nextID()
	if err := l.RBT.Set(heapID, core.NewBounds(l.Heap.Base, uint32(l.Heap.Size), false)); err != nil {
		return nil, err
	}
	l.HeapPtr = core.MakePointer(core.ClassID, core.EncryptID(heapID, l.Key), l.Heap.Base)
	if mode == ModeOff {
		l.HeapPtr = core.MakePointer(core.ClassUnprotected, 0, l.Heap.Base)
	}
	if d.fineGrainHeap {
		for _, ch := range d.heapChunks {
			id := nextID()
			if err := l.RBT.Set(id, core.NewBounds(ch.Base, uint32(ch.Size), false)); err != nil {
				return nil, err
			}
			ptr := core.MakePointer(core.ClassID, core.EncryptID(id, l.Key), ch.Base)
			if mode == ModeOff {
				ptr = core.MakePointer(core.ClassUnprotected, 0, ch.Base)
			}
			l.HeapChunkPtrs = append(l.HeapChunkPtrs, ptr)
		}
	}

	// Static filtering: accesses proven safe skip the BCU; Method-C
	// accesses through ClassSize params use the Type-3 path.
	if mode == ModeShieldStatic && an != nil {
		for idx := range an.StaticSafe {
			if l.SkipCheck == nil {
				l.SkipCheck = make(map[int]bool)
			}
			l.SkipCheck[idx] = true
		}
		for _, ai := range an.Accesses {
			if ai.Class == compiler.AccessType3 && ai.Param >= 0 &&
				ai.Space == kernel.SpaceGlobal && classes[ai.Param] == core.ClassSize {
				if l.Type3Instr == nil {
					l.Type3Instr = make(map[int]bool)
				}
				l.Type3Instr[ai.Instr] = true
			}
		}
	}

	if idErr != nil {
		return nil, idErr
	}

	// Serialize the RBT into device memory at its reserved (untranslated)
	// location, as the driver does at launch (§5.4).
	l.RBTBase = d.allocRBT()
	var buf [core.BoundsEntryBytes]byte
	l.RBT.Each(func(id uint16, b core.Bounds) {
		if !b.Valid() {
			return
		}
		b.EncodeTo(buf[:])
		d.Mem.WriteBytes(core.EntryAddr(l.RBTBase, id), buf[:])
		if d.rbtRecycle {
			d.rbtIDs = append(d.rbtIDs, id)
		}
	})

	// Fault injection: a registered campaign may mutate the prepared launch
	// (stale/duplicate IDs, omitted RBT setup) before the simulator sees it.
	if d.launchMutator != nil {
		d.launchMutator(l)
	}
	return l, nil
}

// groupArgs partitions the buffer-argument indices into groups that will
// share one buffer ID. Without an ID budget every buffer is its own group;
// with one, address-adjacent buffers are merged greedily (smallest gap
// first) until the launch fits (§6.3).
func (d *Device) groupArgs(k *kernel.Kernel, args []Arg) [][]int {
	var groups [][]int
	for i, a := range args {
		if a.Buffer != nil {
			groups = append(groups, []int{i})
		}
	}
	if d.idBudget <= 0 {
		return groups
	}
	// Reserve IDs for local variables and the heap entry (plus fine-grained
	// chunks) out of the same budget.
	reserved := len(k.Locals) + 1
	if d.fineGrainHeap {
		reserved += len(d.heapChunks)
	}
	allowed := d.idBudget - reserved
	if allowed < 1 {
		allowed = 1
	}
	sort.Slice(groups, func(a, b int) bool {
		return args[groups[a][0]].Buffer.Base < args[groups[b][0]].Buffer.Base
	})
	for len(groups) > allowed && len(groups) > 1 {
		// Merge the address-adjacent pair with the smallest gap.
		best := 0
		bestGap := ^uint64(0)
		for i := 0; i+1 < len(groups); i++ {
			last := args[groups[i][len(groups[i])-1]].Buffer
			next := args[groups[i+1][0]].Buffer
			gap := next.Base - last.Base
			if gap < bestGap {
				bestGap = gap
				best = i
			}
		}
		groups[best] = append(groups[best], groups[best+1]...)
		groups = append(groups[:best+1], groups[best+2:]...)
	}
	return groups
}

// paramClasses picks the pointer class for each parameter: Type 1 when every
// access through it was statically proven, Type 3 when every runtime-checked
// access is Method C against a power-of-two-padded non-SVM buffer, Type 2
// otherwise.
func (d *Device) paramClasses(k *kernel.Kernel, args []Arg, mode Mode, an *compiler.Analysis) []core.PtrClass {
	classes := make([]core.PtrClass, len(k.Params))
	for i := range classes {
		classes[i] = core.ClassID
	}
	if mode == ModeOff {
		for i := range classes {
			classes[i] = core.ClassUnprotected
		}
		return classes
	}
	if mode != ModeShieldStatic || an == nil {
		return classes
	}
	type tally struct{ static, type3, runtime int }
	tallies := make([]tally, len(k.Params))
	unresolved := false
	for _, ai := range an.Accesses {
		if ai.Space != kernel.SpaceGlobal {
			continue
		}
		if ai.Param < 0 {
			// The access's base pointer could not be traced to a parameter
			// (laundered through memory or a select). It might dereference
			// ANY buffer, so no parameter may be demoted to an unprotected
			// Type-1 pointer.
			unresolved = true
			continue
		}
		switch ai.Class {
		case compiler.AccessStaticSafe:
			tallies[ai.Param].static++
		case compiler.AccessType3:
			tallies[ai.Param].type3++
		default:
			tallies[ai.Param].runtime++
		}
	}
	for i, p := range k.Params {
		if p.Kind != kernel.ParamBuffer {
			classes[i] = core.ClassUnprotected
			continue
		}
		t := tallies[i]
		switch {
		case unresolved:
			classes[i] = core.ClassID
		case t.runtime == 0 && t.type3 == 0:
			// Every access statically proven (or the buffer is never
			// dereferenced): Type 1.
			classes[i] = core.ClassUnprotected
		case t.runtime == 0 && t.type3 > 0 && args[i].Buffer != nil && !args[i].Buffer.SVM &&
			args[i].Buffer.Base%args[i].Buffer.Padded == 0:
			classes[i] = core.ClassSize
		default:
			classes[i] = core.ClassID
		}
	}
	return classes
}
