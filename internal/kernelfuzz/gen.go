// Package kernelfuzz is a seeded, property-based fuzzer for the GPUShield
// pipeline. It generates random-but-well-formed kernels over the kernel IR
// with known ground-truth access footprints, plants out-of-bounds faults
// from five pattern classes (indirect-index overflows, off-by-one loop
// bounds, misaligned straddles across a region edge, divergence-dependent
// accesses, and use of a freed buffer across launches), and checks three
// implementations against each other:
//
//   - the compiler's static classification (StaticSafe / StaticOOB / Type3),
//   - the BCU's runtime verdict through the normal driver+simulator path,
//   - the generator's ground truth, evaluated per thread over the AST.
//
// Any disagreement is a Finding; findings are shrunk to small reproducers
// and persisted to testdata/bugcorpus/ where a regression test replays them
// forever.
package kernelfuzz

import (
	"fmt"
	"math/rand"
	"sync"

	"gpushield/internal/kernel"
	"gpushield/internal/randsrc"
)

// PlantClass enumerates what a generated case deliberately plants.
type PlantClass int

// Plant classes. The five OOB classes are the ISSUE's required fault
// patterns; PlantNone is the benign control group and PlantMalformed the
// negative generator driving Validate's sentinel errors.
const (
	PlantNone      PlantClass = iota // well-formed, all accesses in bounds
	PlantIndirect                    // index loaded from a buffer holds an OOB value
	PlantOffByOne                    // loop bound one element past the end
	PlantStraddle                    // misaligned access straddling the region edge
	PlantDivergent                   // OOB only on a divergent subset of lanes
	PlantUAF                         // stale tagged pointer used after its launch freed it
	PlantMalformed                   // structurally invalid kernel for Validate
	numPlantClasses
)

func (c PlantClass) String() string {
	switch c {
	case PlantNone:
		return "benign"
	case PlantIndirect:
		return "indirect-index"
	case PlantOffByOne:
		return "off-by-one"
	case PlantStraddle:
		return "straddle"
	case PlantDivergent:
		return "divergent"
	case PlantUAF:
		return "use-after-free"
	case PlantMalformed:
		return "malformed"
	}
	return "class?"
}

// Site identifies one memory access in a generated case. Sites keep stable
// IDs across shrinking (the AST is cloned, Site pointers and IDs survive);
// PC is (re)assigned at every emission.
type Site struct {
	ID      int
	Launch  int // index into Case.Launches
	PC      int // instruction index after the latest emission
	Buf     int // argument index of the buffer accessed (-1: untraceable)
	Bytes   int
	MethodC bool
	IsStore bool
	// Opaque marks a site whose address derives from a runtime-loaded
	// tagged pointer (the UAF deref): ground truth cannot compute its
	// footprint, only require that the BCU flags it.
	Opaque bool
}

// ExprKind enumerates the side-effect-free per-thread expression forms.
type ExprKind int

// Expression kinds.
const (
	ExConst ExprKind = iota
	ExTID
	ExCTAID
	ExGTID
	ExLoopVar // loop variable at nesting depth Loop
	ExScalar  // scalar argument Arg's value
	ExParam   // raw argument word of param Arg (tagged pointer for buffers)
	ExVar     // value produced by an earlier SLoad
	ExAdd
	ExSub
	ExMul
	ExAnd
	ExLT // comparisons produce 0/1, used as If guards
	ExGE
	ExEQ
)

// Expr is a per-thread integer expression tree.
type Expr struct {
	Kind ExprKind
	Val  int64
	Arg  int
	Loop int
	Var  int
	X, Y *Expr
}

func konst(v int64) *Expr              { return &Expr{Kind: ExConst, Val: v} }
func gtid() *Expr                      { return &Expr{Kind: ExGTID} }
func tid() *Expr                       { return &Expr{Kind: ExTID} }
func evar(v int) *Expr                 { return &Expr{Kind: ExVar, Var: v} }
func bin(k ExprKind, x, y *Expr) *Expr { return &Expr{Kind: k, X: x, Y: y} }

// StmtKind enumerates the statement forms of the generated AST.
type StmtKind int

// Statement kinds.
const (
	SLoad  StmtKind = iota // Var = load Base[Elem*Bytes]
	SStore                 // store Base[Elem*Bytes] = Val
	SLoop                  // for i := Start; i < Bound; i += Step { Body }
	SIf                    // if Cond != 0 { Body }
)

// Stmt is one statement of a generated kernel body.
type Stmt struct {
	Kind StmtKind

	// Memory accesses (SLoad / SStore).
	Site  *Site
	Buf   int   // argument index of the buffer param; -1 when Base is used
	Base  *Expr // non-nil: address base expression (UAF deref); else param Buf
	Elem  *Expr // element-index expression; byte offset = Elem * Scale
	Scale int64 // byte scale applied to Elem (usually == Bytes, 1 for straddles)
	Bytes int
	Val   *Expr // store value
	Var   int   // SLoad destination variable id

	// SLoop.
	Start, Bound, Step int64

	// SIf.
	Cond *Expr

	Body []*Stmt
}

// BufSpec describes one device buffer of a case. Size is Elems * 8 bytes;
// Init holds the 8-byte element values copied to the device before launch
// (nil = zeros).
type BufSpec struct {
	Name     string
	Elems    int
	ReadOnly bool
	Init     []int64
}

func (b BufSpec) Size() uint64 { return uint64(b.Elems) * 8 }

// nextPow2 mirrors the driver's padding rule (Type-3 regions).
func nextPow2(v uint64) uint64 {
	p := uint64(1)
	for p < v {
		p <<= 1
	}
	return p
}

func (b BufSpec) Padded() uint64 { return nextPow2(b.Size()) }

// ArgSpec is one kernel argument of a launch: a case buffer or a scalar.
type ArgSpec struct {
	Buf      int // index into Case.Bufs, or -1 for a scalar
	Scalar   int64
	ReadOnly bool // declare the kernel parameter read-only
}

// LaunchSpec is one kernel launch of a case.
type LaunchSpec struct {
	Name        string
	Grid, Block int
	Args        []ArgSpec
	Body        []*Stmt
	NumVars     int // SLoad destination variables allocated so far
}

// MalformedSpec is a PlantMalformed case: a structurally invalid kernel and
// the Validate sentinel it must be rejected with.
type MalformedSpec struct {
	Name    string
	Kernel  *kernel.Kernel
	WantErr error
}

// Case is one generated fuzz case.
type Case struct {
	Seed  int64
	Index int
	Class PlantClass

	Bufs     []BufSpec
	Launches []LaunchSpec
	Sites    []*Site

	// PlantedSites lists the site IDs carrying the planted fault (empty
	// for PlantNone/PlantMalformed).
	PlantedSites []int

	Malformed *MalformedSpec
}

// splitmix64 is the per-case seed mixer: cheap, well-distributed, and
// stable across platforms, so case N of seed S is the same everywhere.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// caseSeed derives the deterministic sub-seed for one case (and salt).
func caseSeed(seed int64, index int, salt uint64) int64 {
	return int64(splitmix64(uint64(seed) ^ splitmix64(uint64(index)*2654435761+salt)))
}

// ClassForIndex cycles the plant classes so any contiguous run of 7+ cases
// covers every class.
func ClassForIndex(index int) PlantClass {
	return PlantClass(index % int(numPlantClasses))
}

// gen carries generator state for one case.
type gen struct {
	rng *rand.Rand
	c   *Case
}

func (g *gen) site(launch, buf, bytes int, methodC, store bool) *Site {
	s := &Site{
		ID: len(g.c.Sites), Launch: launch, Buf: buf,
		Bytes: bytes, MethodC: methodC, IsStore: store,
	}
	g.c.Sites = append(g.c.Sites, s)
	return s
}

func (g *gen) pick(vals ...int) int { return vals[g.rng.Intn(len(vals))] }

// genRands recycles Generate's random streams: a source is 4.9 KB, and
// re-seeding one in place is cheaper than building a new one per case.
var genRands = sync.Pool{New: func() any { return rand.New(randsrc.New(0)) }}

// Generate builds case `index` of stream `seed`. The same (seed, index)
// always yields the same case, independent of every other case.
func Generate(seed int64, index int) *Case {
	c := &Case{Seed: seed, Index: index, Class: ClassForIndex(index)}
	rng := genRands.Get().(*rand.Rand)
	defer genRands.Put(rng)
	rng.Seed(caseSeed(seed, index, 0xF0))
	g := &gen{rng: rng, c: c}
	switch c.Class {
	case PlantNone:
		g.genBenign()
	case PlantIndirect:
		g.genIndirect()
	case PlantOffByOne:
		g.genOffByOne()
	case PlantStraddle:
		g.genStraddle()
	case PlantDivergent:
		g.genDivergent()
	case PlantUAF:
		g.genUAF()
	case PlantMalformed:
		g.genMalformed()
	}
	return c
}

// geometry picks a small launch shape. Blocks are powers of two so masked
// indices cover their range; total threads stay <= 256 to keep runs cheap.
func (g *gen) geometry() (grid, block int) {
	block = g.pick(8, 16, 32, 64)
	grid = g.pick(1, 2, 4)
	return grid, block
}

// outElems picks a writable-buffer size; pow2 forces Size == Padded (the
// Type-3 region equals the exact region), non-pow2 opens the padding gap
// the oracle must model.
func (g *gen) outElems(pow2Only bool) int {
	if pow2Only || g.rng.Intn(2) == 0 {
		return g.pick(32, 64, 128)
	}
	return g.pick(24, 48, 96, 112)
}

// maskFor returns elems-1 when elems is a power of two; callers only mask
// against pow2-sized buffers.
func maskFor(elems int) int64 { return int64(elems - 1) }

// benignStore builds one guaranteed-in-bounds store into buffer arg `buf`
// of pow2 element count elems.
func (g *gen) benignStore(launch, buf, elems, threads int) *Stmt {
	var elem *Expr
	if elems >= threads && g.rng.Intn(2) == 0 {
		// Unmasked gtid: provably in bounds, exercises StaticSafe + skip.
		elem = gtid()
	} else {
		src := []*Expr{gtid(), tid(), bin(ExAdd, gtid(), konst(int64(g.rng.Intn(8))))}
		elem = bin(ExAnd, src[g.rng.Intn(len(src))], konst(maskFor(elems)))
	}
	bytes := g.pick(4, 8)
	st := g.site(launch, buf, bytes, g.rng.Intn(2) == 0, true)
	return &Stmt{
		Kind: SStore, Site: st, Buf: buf, Elem: elem, Scale: int64(bytes),
		Bytes: bytes, Val: g.valueExpr(launch),
	}
}

// valueExpr builds a random store value (never used for addressing).
func (g *gen) valueExpr(launch int) *Expr {
	switch g.rng.Intn(4) {
	case 0:
		return konst(int64(g.rng.Intn(1 << 16)))
	case 1:
		return gtid()
	case 2:
		return bin(ExMul, tid(), konst(int64(1+g.rng.Intn(7))))
	default:
		if n := g.scalarArg(launch); n >= 0 {
			return &Expr{Kind: ExScalar, Arg: n}
		}
		return tid()
	}
}

// scalarArg returns the launch's scalar argument index, or -1.
func (g *gen) scalarArg(launch int) int {
	for i, a := range g.c.Launches[launch].Args {
		if a.Buf < 0 {
			return i
		}
	}
	return -1
}

// addBuf appends a buffer to the case and returns its index.
func (g *gen) addBuf(b BufSpec) int {
	g.c.Bufs = append(g.c.Bufs, b)
	return len(g.c.Bufs) - 1
}

// singleLaunch sets up the common one-launch scaffold: one writable out
// buffer, optionally a read-only source buffer, and one scalar.
func (g *gen) singleLaunch(outPow2 bool) (launch int, outArg, outElems int) {
	grid, block := g.geometry()
	elems := g.outElems(outPow2)
	out := g.addBuf(BufSpec{Name: "out", Elems: elems})
	l := LaunchSpec{Name: "fz", Grid: grid, Block: block}
	l.Args = append(l.Args, ArgSpec{Buf: out})
	l.Args = append(l.Args, ArgSpec{Buf: -1, Scalar: int64(g.rng.Intn(1 << 12))})
	g.c.Launches = append(g.c.Launches, l)
	return 0, 0, elems
}

func (g *gen) genBenign() {
	launch, outArg, elems := g.singleLaunch(true) // pow2 so masks are exact
	l := &g.c.Launches[launch]
	threads := l.Grid * l.Block

	n := 1 + g.rng.Intn(3)
	for i := 0; i < n; i++ {
		switch g.rng.Intn(4) {
		case 0, 1:
			l.Body = append(l.Body, g.benignStore(launch, outArg, elems, threads))
		case 2:
			// Guarded store: exercises divergence without any OOB.
			k := int64(1 + g.rng.Intn(l.Block-1))
			l.Body = append(l.Body, &Stmt{
				Kind: SIf, Cond: bin(ExLT, tid(), konst(k)),
				Body: []*Stmt{g.benignStore(launch, outArg, elems, threads)},
			})
		case 3:
			// Small uniform loop of masked stores.
			trips := int64(2 + g.rng.Intn(3))
			inner := &Stmt{
				Kind: SStore,
				Site: g.site(launch, outArg, 8, g.rng.Intn(2) == 0, true),
				Buf:  outArg,
				Elem: bin(ExAnd,
					bin(ExAdd, bin(ExMul, &Expr{Kind: ExLoopVar}, konst(int64(l.Block))), tid()),
					konst(maskFor(elems))),
				Scale: 8, Bytes: 8, Val: &Expr{Kind: ExLoopVar},
			}
			l.Body = append(l.Body, &Stmt{Kind: SLoop, Start: 0, Bound: trips, Step: 1, Body: []*Stmt{inner}})
		}
	}
	// Sometimes read through a read-only source buffer (masked, in bounds)
	// and store the loaded value.
	if g.rng.Intn(2) == 0 {
		selems := g.pick(32, 64)
		init := make([]int64, selems)
		for i := range init {
			init[i] = int64(g.rng.Intn(1 << 20))
		}
		src := g.addBuf(BufSpec{Name: "src", Elems: selems, ReadOnly: true, Init: init})
		l.Args = append(l.Args, ArgSpec{Buf: src, ReadOnly: true})
		srcArg := len(l.Args) - 1
		v := l.NumVars
		l.NumVars++
		ld := &Stmt{
			Kind: SLoad, Site: g.site(launch, srcArg, 8, g.rng.Intn(2) == 0, false),
			Buf: srcArg, Elem: bin(ExAnd, gtid(), konst(maskFor(selems))),
			Scale: 8, Bytes: 8, Var: v,
		}
		stb := g.benignStore(launch, outArg, elems, threads)
		stb.Val = evar(v)
		l.Body = append(l.Body, ld, stb)
	}
}

// genIndirect plants an OOB value inside a read-only index buffer: the
// index load itself is in bounds, the access it feeds is not.
func (g *gen) genIndirect() {
	launch, outArg, elems := g.singleLaunch(g.rng.Intn(3) != 0)
	l := &g.c.Launches[launch]
	threads := l.Grid * l.Block

	ielems := g.pick(8, 16, 32)
	if ielems > threads {
		ielems = threads
	}
	init := make([]int64, ielems)
	for i := range init {
		init[i] = int64(g.rng.Intn(elems))
	}
	slot := g.rng.Intn(ielems)
	if g.rng.Intn(4) == 0 {
		// Negative index: drives the below-base path (Type-2 OOB by
		// address, Type-3 negative offset).
		init[slot] = -int64(1 + g.rng.Intn(1<<16))
	} else {
		init[slot] = int64(elems) + int64(g.rng.Intn(1<<g.rng.Intn(20)))
	}
	idx := g.addBuf(BufSpec{Name: "idx", Elems: ielems, ReadOnly: true, Init: init})
	l.Args = append(l.Args, ArgSpec{Buf: idx, ReadOnly: true})
	idxArg := len(l.Args) - 1

	v := l.NumVars
	l.NumVars++
	ld := &Stmt{
		Kind: SLoad, Site: g.site(launch, idxArg, 8, g.rng.Intn(2) == 0, false),
		Buf: idxArg, Elem: bin(ExAnd, gtid(), konst(maskFor(ielems))),
		Scale: 8, Bytes: 8, Var: v,
	}
	victim := g.site(launch, outArg, 8, g.rng.Intn(2) == 0, g.rng.Intn(4) != 0)
	use := &Stmt{
		Kind: SStore, Site: victim, Buf: outArg, Elem: evar(v),
		Scale: 8, Bytes: 8, Val: gtid(),
	}
	if !victim.IsStore {
		use.Kind = SLoad
		use.Val = nil
		use.Var = l.NumVars
		l.NumVars++
	}
	l.Body = append(l.Body, ld, use)
	g.c.PlantedSites = []int{victim.ID}
}

// genOffByOne plants the classic loop-bound error: the last iteration
// touches one element past the end.
func (g *gen) genOffByOne() {
	launch, outArg, elems := g.singleLaunch(g.rng.Intn(2) == 0)
	l := &g.c.Launches[launch]

	victim := g.site(launch, outArg, 8, g.rng.Intn(2) == 0, true)
	var inner *Stmt
	var bound int64
	if g.rng.Intn(2) == 0 {
		// for i in [0, elems+1): store out[i]
		bound = int64(elems) + 1
		inner = &Stmt{Kind: SStore, Site: victim, Buf: outArg,
			Elem: &Expr{Kind: ExLoopVar}, Scale: 8, Bytes: 8, Val: &Expr{Kind: ExLoopVar}}
	} else {
		// for i in [0, elems): store out[i+1]
		bound = int64(elems)
		inner = &Stmt{Kind: SStore, Site: victim, Buf: outArg,
			Elem: bin(ExAdd, &Expr{Kind: ExLoopVar}, konst(1)), Scale: 8, Bytes: 8,
			Val: &Expr{Kind: ExLoopVar}}
	}
	l.Body = append(l.Body, &Stmt{Kind: SLoop, Start: 0, Bound: bound, Step: 1, Body: []*Stmt{inner}})
	g.c.PlantedSites = []int{victim.ID}
}

// genStraddle plants a misaligned access whose first byte is inside the
// region and whose last byte crosses the region edge.
func (g *gen) genStraddle() {
	launch, outArg, elems := g.singleLaunch(g.rng.Intn(2) == 0)
	l := &g.c.Launches[launch]
	threads := l.Grid * l.Block

	size := int64(elems) * 8
	bytes := g.pick(4, 8)
	back := int64(g.pick(1, 2, bytes/2)) // 0 < back < bytes: straddles
	victim := g.site(launch, outArg, bytes, g.rng.Intn(2) == 0, g.rng.Intn(3) != 0)
	st := &Stmt{
		Kind: SStore, Site: victim, Buf: outArg,
		Elem: konst(size - back), Scale: 1, Bytes: bytes, Val: gtid(),
	}
	if !victim.IsStore {
		st.Kind = SLoad
		st.Val = nil
		st.Var = l.NumVars
		l.NumVars++
	}
	// Keep some benign traffic around the straddle so it has to be picked
	// out of a working kernel, not a one-liner.
	l.Body = append(l.Body, g.benignStore(launch, outArg, int(nextPow2(uint64(elems))/2), threads), st)
	g.c.PlantedSites = []int{victim.ID}
}

// genDivergent plants an access that is OOB only for a divergent subset of
// lanes: lanes below the guard never execute it, and among executing lanes
// only the high global IDs run past the end.
func (g *gen) genDivergent() {
	grid := g.pick(1, 2)
	block := g.pick(16, 32, 64)
	threads := grid * block
	elems := threads // pow2: every OOB is also past the padded region
	out := g.addBuf(BufSpec{Name: "out", Elems: elems})
	l := LaunchSpec{Name: "fz", Grid: grid, Block: block}
	l.Args = append(l.Args, ArgSpec{Buf: out})
	g.c.Launches = append(g.c.Launches, l)
	ls := &g.c.Launches[0]

	d := int64(1 + g.rng.Intn(block/2))
	k := int64(1 + g.rng.Intn(block-1))
	victim := g.site(0, 0, 8, g.rng.Intn(2) == 0, true)
	ls.Body = append(ls.Body,
		g.benignStore(0, 0, elems, threads),
		&Stmt{
			Kind: SIf, Cond: bin(ExGE, tid(), konst(k)),
			Body: []*Stmt{{
				Kind: SStore, Site: victim, Buf: 0,
				Elem: bin(ExAdd, gtid(), konst(d)), Scale: 8, Bytes: 8, Val: tid(),
			}},
		})
	g.c.PlantedSites = []int{victim.ID}
}

// genUAF plants a cross-launch use-after-free: launch 1 escrows its tagged
// victim pointer into a buffer; launch 2 — whose launch-scoped RBT and key
// no longer cover the victim — loads the stale pointer back and
// dereferences it. The deref must be flagged (stale decrypt -> invalid ID,
// or bounds of an unrelated region -> OOB) under both shield modes.
func (g *gen) genUAF() {
	grid, block := g.geometry()
	threads := grid * block
	eelems := g.pick(8, 16)
	if eelems > threads {
		eelems = threads
	}
	velems := g.pick(16, 32, 64)

	ielems := g.pick(8, 16)
	if ielems > threads {
		ielems = threads
	}
	init := make([]int64, ielems)
	for i := range init {
		init[i] = int64(g.rng.Intn(velems))
	}

	victimBuf := g.addBuf(BufSpec{Name: "victim", Elems: velems})
	escrow := g.addBuf(BufSpec{Name: "escrow", Elems: eelems})
	out := g.addBuf(BufSpec{Name: "out", Elems: g.pick(32, 64)})
	iro := g.addBuf(BufSpec{Name: "iro", Elems: ielems, ReadOnly: true, Init: init})

	// Launch 1: a data-dependent (runtime-classified) in-bounds store keeps
	// the victim param protected — an untouched param would be Type-1
	// unprotected under shield+static, and its escaped pointer would dodge
	// the BCU entirely. Then escrow[gtid & mask] = victim's tagged pointer.
	l1 := LaunchSpec{Name: "fz_plant", Grid: grid, Block: block}
	l1.Args = []ArgSpec{{Buf: victimBuf}, {Buf: escrow}, {Buf: iro, ReadOnly: true}}
	l1.NumVars = 1
	l1.Body = append(l1.Body,
		&Stmt{
			Kind: SLoad, Site: g.site(0, 2, 8, g.rng.Intn(2) == 0, false), Buf: 2,
			Elem:  bin(ExAnd, gtid(), konst(maskFor(ielems))),
			Scale: 8, Bytes: 8, Var: 0,
		},
		// Method B, data-dependent: classified AccessRuntime, which pins the
		// victim param to ClassID. (Method C would classify Type-3 and tag
		// the escaped pointer ClassSize — a class whose stale derefs via
		// Method B legitimately slip the size check, breaking the plant.)
		&Stmt{
			Kind: SStore, Site: g.site(0, 0, 8, false, true), Buf: 0,
			Elem: evar(0), Scale: 8, Bytes: 8, Val: gtid(),
		},
		&Stmt{
			Kind: SStore, Site: g.site(0, 1, 8, false, true), Buf: 1,
			Elem:  bin(ExAnd, gtid(), konst(maskFor(eelems))),
			Scale: 8, Bytes: 8, Val: &Expr{Kind: ExParam, Arg: 0},
		})
	g.c.Launches = append(g.c.Launches, l1)

	// Launch 2: p = escrow[gtid & mask]; store p[tid & vmask] = tid.
	// The victim is not an argument: its ID was never installed for this
	// launch, modeling the free.
	l2 := LaunchSpec{Name: "fz_use", Grid: grid, Block: block}
	l2.Args = []ArgSpec{{Buf: escrow}, {Buf: out}}
	v := 0
	l2.NumVars = 1
	ld := &Stmt{
		Kind: SLoad, Site: g.site(1, 0, 8, g.rng.Intn(2) == 0, false), Buf: 0,
		Elem:  bin(ExAnd, gtid(), konst(maskFor(eelems))),
		Scale: 8, Bytes: 8, Var: v,
	}
	deref := g.site(1, -1, 8, false, true)
	deref.Opaque = true
	use := &Stmt{
		Kind: SStore, Site: deref, Buf: -1, Base: evar(v),
		Elem:  bin(ExAnd, tid(), konst(maskFor(velems))),
		Scale: 8, Bytes: 8, Val: tid(),
	}
	l2.Body = append(l2.Body, ld, use)
	g.c.Launches = append(g.c.Launches, l2)
	if g.rng.Intn(2) == 0 {
		l2b := &g.c.Launches[1]
		l2b.Body = append(l2b.Body, g.benignStore(1, 1, g.c.Bufs[out].Elems, threads))
	}
	g.c.PlantedSites = []int{deref.ID}
}

// genMalformed builds a structurally invalid kernel paired with the
// Validate sentinel that must reject it.
func (g *gen) genMalformed() {
	base := func() *kernel.Kernel {
		return &kernel.Kernel{
			Name:    "fz_bad",
			Params:  []kernel.ParamSpec{{Name: "d", Kind: kernel.ParamBuffer}},
			Locals:  []kernel.LocalVar{{Name: "t", Bytes: 8}},
			NumRegs: 2,
			Code: []kernel.Instr{
				{Op: kernel.OpMov, Dst: 0, Src: [3]kernel.Operand{kernel.Imm(0)}, Pred: -1},
				{Op: kernel.OpSt, Dst: -1, Src: [3]kernel.Operand{kernel.Param(0), {}, kernel.Reg(0)}, Pred: -1, Space: kernel.SpaceGlobal, Bytes: 8},
				{Op: kernel.OpExit, Dst: -1, Pred: -1},
			},
		}
	}
	type corruption struct {
		name    string
		corrupt func(*kernel.Kernel)
		want    error
	}
	table := []corruption{
		{"empty-program", func(k *kernel.Kernel) { k.Code = nil }, kernel.ErrEmptyProgram},
		{"branch-past-end", func(k *kernel.Kernel) {
			k.Code[2] = kernel.Instr{Op: kernel.OpBraUni, Dst: -1, Pred: -1, Label: 7 + g.rng.Intn(100)}
		}, kernel.ErrBadBranch},
		{"branch-negative", func(k *kernel.Kernel) {
			k.Code[2] = kernel.Instr{Op: kernel.OpBraUni, Dst: -1, Pred: -1, Label: -1 - g.rng.Intn(4)}
		}, kernel.ErrBadBranch},
		{"reconv-backward", func(k *kernel.Kernel) {
			k.Code[1] = kernel.Instr{Op: kernel.OpBraDiv, Dst: -1, Pred: 0, Label: 0, Reconv: 0}
		}, kernel.ErrBadBranch},
		{"uninit-read", func(k *kernel.Kernel) { k.Code[1].Src[2] = kernel.Reg(1) }, kernel.ErrUninitRead},
		{"uninit-guard", func(k *kernel.Kernel) { k.Code[1].Pred = 1 }, kernel.ErrUninitRead},
		{"local-zero-bytes", func(k *kernel.Kernel) { k.Locals[0].Bytes = -g.rng.Intn(16) }, kernel.ErrBadLocal},
		{"reg-out-of-range", func(k *kernel.Kernel) { k.Code[0].Dst = 2 + g.rng.Intn(8) }, kernel.ErrBadRegister},
		{"param-out-of-range", func(k *kernel.Kernel) { k.Code[1].Src[0] = kernel.Param(1 + g.rng.Intn(8)) }, kernel.ErrBadParam},
		{"undefined-opcode", func(k *kernel.Kernel) { k.Code[0].Op = kernel.OpExit + 1 }, kernel.ErrBadOpcode},
		{"bad-access-size", func(k *kernel.Kernel) { k.Code[1].Bytes = 3 }, kernel.ErrBadAccess},
		{"undefined-space", func(k *kernel.Kernel) { k.Code[1].Space = kernel.SpaceShared + 1 }, kernel.ErrBadAccess},
		{"negative-shared", func(k *kernel.Kernel) { k.SharedBytes = -1 - g.rng.Intn(64) }, kernel.ErrBadAccess},
	}
	pick := table[g.rng.Intn(len(table))]
	k := base()
	pick.corrupt(k)
	g.c.Malformed = &MalformedSpec{Name: pick.name, Kernel: k, WantErr: pick.want}
}

// ---- Emission: AST -> kernel IR -------------------------------------------

// emitState tracks operand bindings while lowering one launch body.
type emitState struct {
	b     *kernel.Builder
	vars  map[int]kernel.Operand
	loops []kernel.Operand
}

// BuildKernels lowers every launch of the case to kernel IR, assigning each
// Site's PC. Malformed cases return the invalid kernel as-is.
func BuildKernels(c *Case) ([]*kernel.Kernel, error) {
	if c.Malformed != nil {
		return []*kernel.Kernel{c.Malformed.Kernel}, nil
	}
	kernels := make([]*kernel.Kernel, len(c.Launches))
	for li := range c.Launches {
		l := &c.Launches[li]
		b := kernel.NewBuilder(fmt.Sprintf("%s_%d_%d", l.Name, c.Index, li))
		for ai, a := range l.Args {
			if a.Buf >= 0 {
				b.BufferParam(fmt.Sprintf("p%d", ai), a.ReadOnly)
			} else {
				b.ScalarParam(fmt.Sprintf("s%d", ai))
			}
		}
		b.Grow(emitLen(l.Body) + 1)
		es := &emitState{b: b, vars: make(map[int]kernel.Operand)}
		emitStmts(es, l.Body)
		b.Exit()
		k, err := b.Build()
		if err != nil {
			return nil, fmt.Errorf("case %d launch %d: %w", c.Index, li, err)
		}
		kernels[li] = k
	}
	return kernels, nil
}

func emitStmts(es *emitState, body []*Stmt) {
	for _, s := range body {
		emitStmt(es, s)
	}
}

func emitStmt(es *emitState, s *Stmt) {
	b := es.b
	switch s.Kind {
	case SLoad, SStore:
		elem := emitExpr(es, s.Elem)
		if s.Base != nil {
			// Register base (UAF deref): addr = elem*scale + base-value.
			addr := b.Mad(elem, kernel.Imm(s.Scale), emitExpr(es, s.Base))
			if s.Kind == SLoad {
				es.vars[s.Var] = b.LoadGlobal(addr, s.Bytes)
			} else {
				b.StoreGlobal(addr, emitExpr(es, s.Val), s.Bytes)
			}
		} else if s.Site.MethodC {
			off := b.Mul(elem, kernel.Imm(s.Scale))
			if s.Kind == SLoad {
				es.vars[s.Var] = b.LoadGlobalOfs(kernel.Param(s.Buf), off, s.Bytes)
			} else {
				b.StoreGlobalOfs(kernel.Param(s.Buf), off, emitExpr(es, s.Val), s.Bytes)
			}
		} else {
			// Method B in the GEP shape the analyzer recognizes.
			addr := b.AddScaled(kernel.Param(s.Buf), elem, s.Scale)
			if s.Kind == SLoad {
				es.vars[s.Var] = b.LoadGlobal(addr, s.Bytes)
			} else {
				b.StoreGlobal(addr, emitExpr(es, s.Val), s.Bytes)
			}
		}
		s.Site.PC = b.Len() - 1
	case SLoop:
		b.ForRange(kernel.Imm(s.Start), kernel.Imm(s.Bound), kernel.Imm(s.Step), func(i kernel.Operand) {
			es.loops = append(es.loops, i)
			emitStmts(es, s.Body)
			es.loops = es.loops[:len(es.loops)-1]
		})
	case SIf:
		b.If(emitExpr(es, s.Cond), func() {
			emitStmts(es, s.Body)
		})
	}
}

// emitLen is the number of instructions emitStmts writes for body.
func emitLen(body []*Stmt) int {
	n := 0
	for _, s := range body {
		switch s.Kind {
		case SLoad, SStore:
			// The index, the address or offset, the base or value, the access.
			n += exprLen(s.Elem) + 2 + exprLen(s.Base)
			if s.Kind == SStore {
				n += exprLen(s.Val)
			}
		case SLoop:
			// ForRange: mov, set.lt, bra.all, body, add, mov, bra.
			n += 6 + emitLen(s.Body)
		case SIf:
			n += exprLen(s.Cond) + 1 + emitLen(s.Body)
		}
	}
	return n
}

// exprLen is the number of instructions emitExpr writes for e.
func exprLen(e *Expr) int {
	if e == nil || e.Kind < ExAdd {
		return 0 // operands: immediates, special registers, params, bound registers
	}
	return 1 + exprLen(e.X) + exprLen(e.Y)
}

func emitExpr(es *emitState, e *Expr) kernel.Operand {
	b := es.b
	switch e.Kind {
	case ExConst:
		return kernel.Imm(e.Val)
	case ExTID:
		return b.TID()
	case ExCTAID:
		return b.CTAID()
	case ExGTID:
		return b.GlobalTID()
	case ExLoopVar:
		return es.loops[len(es.loops)-1-e.Loop]
	case ExScalar, ExParam:
		return kernel.Param(e.Arg)
	case ExVar:
		return es.vars[e.Var]
	case ExAdd:
		return b.Add(emitExpr(es, e.X), emitExpr(es, e.Y))
	case ExSub:
		return b.Sub(emitExpr(es, e.X), emitExpr(es, e.Y))
	case ExMul:
		return b.Mul(emitExpr(es, e.X), emitExpr(es, e.Y))
	case ExAnd:
		return b.And(emitExpr(es, e.X), emitExpr(es, e.Y))
	case ExLT:
		return b.SetLT(emitExpr(es, e.X), emitExpr(es, e.Y))
	case ExGE:
		return b.SetGE(emitExpr(es, e.X), emitExpr(es, e.Y))
	case ExEQ:
		return b.SetEQ(emitExpr(es, e.X), emitExpr(es, e.Y))
	}
	panic(fmt.Sprintf("kernelfuzz: emit of expr kind %d", e.Kind))
}
