package sim

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"gpushield/internal/core"
	"gpushield/internal/driver"
	"gpushield/internal/kernel"
)

// tagHarness is one warp on one core, wired just far enough for address
// generation: register 0 is the address (Method B) or offset (Method C)
// register under test.
func tagHarness(cfg Config, args []uint64) (*coreState, *warp) {
	g := &GPU{cfg: cfg}
	c := &coreState{gpu: g, memos: make([]core.CheckMemo, 1)}
	ww := cfg.WarpWidth
	l := &driver.Launch{Grid: 1, Block: ww, Args: args, Kernel: &kernel.Kernel{NumRegs: 2}}
	r := &kernelRun{launch: l, tab: &kernelTable{sites: []int32{0}, nSites: 1}}
	w := &warp{wg: &workgroup{run: r}, ww: ww, live: 1<<uint(ww) - 1, shapes: true}
	w.rows = make([]int64, 2*ww)
	w.shape = make([]regShape, 2)
	return c, w
}

// TestAffineAddressEdges drives memory-plan address generation with an
// affine-tagged address or offset register and compares it with the same
// lane values held as a vector register (the scan) and with the reference
// generator: every lane's address and offset, the pointer tag, the byte
// ranges, the coalesced lines — and, between the tag and the scan, the
// class. The cases sit where the tag path must fall back: lanes that carry
// into the pointer-tag bits, negative slopes, offsets that overflow int64
// or wrap the address space, and strides narrower than the access.
func TestAffineAddressEdges(t *testing.T) {
	ptrB := core.MakePointer(core.ClassID, 0x1234, 0x7_0000)
	ptrTop := core.MakePointer(core.ClassID, 0x0ABC, core.AddrMask-40)
	ptrC := core.MakePointer(core.ClassSize, 12, 0x9_0000)
	type tc struct {
		name        string
		methodC     bool
		base, slope int64
		bytes       int
	}
	cases := []tc{
		{"B/uniform-tagged-pointer", false, int64(ptrB), 0, 8},
		{"B/unit", false, int64(ptrB), 4, 4},
		{"B/strided", false, int64(ptrB), 12, 4},
		{"B/narrow-stride-straddles", false, int64(ptrB) + 124, 1, 4},
		{"B/negative-slope", false, int64(ptrB) + 4096, -8, 8},
		{"B/carry-into-tag", false, int64(ptrTop), 8, 8},
		{"B/carry-at-last-lane", false, int64(ptrTop) - 8*30, 8, 8},
		{"B/huge-slope", false, int64(ptrB), 1 << 44, 4},
		{"B/negative-uniform", false, -16, 0, 4},
		{"C/unit", true, 64, 4, 4},
		{"C/negative-offsets", true, -1024, 16, 4},
		{"C/negative-slope", true, 4096, -4, 4},
		{"C/offset-overflows-int64", true, math.MaxInt64 - 100, 8, 8},
		{"C/address-wraps", true, -int64(core.Addr(ptrC)) - 64, 4, 8},
		{"C/uniform", true, 72, 0, 2},
		{"C/narrow-stride", true, 126, 1, 4},
	}
	masks := []struct {
		name string
		m    func(ww int) uint64
	}{
		{"full", func(ww int) uint64 { return 1<<uint(ww) - 1 }},
		{"contiguous", func(ww int) uint64 { return (1<<uint(ww) - 1) &^ 0b1111 &^ (1 << uint(ww-1)) }},
		{"even", func(ww int) uint64 { return 0x5555_5555_5555_5555 & (1<<uint(ww) - 1) }},
		{"uneven", func(ww int) uint64 { return 0b1011_0001_0110 }},
		{"single", func(ww int) uint64 { return 1 << 5 }},
	}
	for _, cfg := range []Config{NvidiaConfig(), IntelConfig()} {
		for _, k := range cases {
			for _, mk := range masks {
				t.Run(fmt.Sprintf("%s/%s/%s", cfg.Name, k.name, mk.name), func(t *testing.T) {
					in := &kernel.Instr{Op: kernel.OpLd, Dst: 1, Pred: -1, Bytes: k.bytes,
						Src: [3]kernel.Operand{kernel.Reg(0)}}
					if k.methodC {
						in.Src = [3]kernel.Operand{kernel.Param(0), kernel.Reg(0)}
					}
					gmask := mk.m(cfg.WarpWidth)
					ct, wt := tagHarness(cfg, []uint64{ptrC})
					wt.shape[0] = regShape{base: k.base, slope: k.slope}
					cv, wv := tagHarness(cfg, []uint64{ptrC})
					wv.shape[0] = regShape{vector: true}
					for lane := 0; lane < cfg.WarpWidth; lane++ {
						wv.row(0)[lane] = k.base + k.slope*int64(lane)
					}
					var pt, pv, pr memPrep
					ct.memGen(wt, in, gmask, &pt)
					cv.memGen(wv, in, gmask, &pv)
					ct.memGenRef(wt, in, gmask, &pr)
					for _, p := range []struct {
						name string
						prep *memPrep
					}{{"scan", &pv}, {"reference", &pr}} {
						if d := prepDiff(&pt, p.prep, gmask); d != "" {
							t.Fatalf("tag path vs %s: %s", p.name, d)
						}
					}
					if pt.class != pv.class || pt.wrapped != pv.wrapped {
						t.Fatalf("class/wrapped: tag %d/%v, scan %d/%v", pt.class, pt.wrapped, pv.class, pv.wrapped)
					}
				})
			}
		}
	}
}

// prepDiff compares the generated fields of two memPreps on gmask's lanes.
func prepDiff(a, b *memPrep, gmask uint64) string {
	for lane := 0; lane < 64; lane++ {
		if gmask&(1<<uint(lane)) == 0 {
			continue
		}
		if a.addrs[lane] != b.addrs[lane] || a.offs[lane] != b.offs[lane] {
			return fmt.Sprintf("lane %d: addr %#x/%#x ofs %d/%d", lane, a.addrs[lane], b.addrs[lane], a.offs[lane], b.offs[lane])
		}
	}
	switch {
	case a.ptr != b.ptr:
		return fmt.Sprintf("pointer %#x vs %#x", a.ptr, b.ptr)
	case a.minAddr != b.minAddr || a.maxAddr != b.maxAddr:
		return fmt.Sprintf("address range [%#x,%#x] vs [%#x,%#x]", a.minAddr, a.maxAddr, b.minAddr, b.maxAddr)
	case a.minOfs != b.minOfs || a.maxOfs != b.maxOfs:
		return fmt.Sprintf("offset range [%d,%d] vs [%d,%d]", a.minOfs, a.maxOfs, b.minOfs, b.maxOfs)
	case !reflect.DeepEqual(a.lines[:a.nLines], b.lines[:b.nLines]):
		return fmt.Sprintf("lines %#x vs %#x", a.lines[:a.nLines], b.lines[:b.nLines])
	}
	return ""
}

// TestAffineAddressViolations runs the tag readers' edge shapes end to end
// under the BCU: a uniform tagged pointer, a descending (negative-slope)
// store, and an address register whose upper lanes carry past the 48
// address bits into the pointer tag, which the BCU must flag against lane
// 0's buffer. Reports, violation records included, and memory must match
// the reference per-lane memory path at every core width.
func TestAffineAddressViolations(t *testing.T) {
	const n = 1024
	kb := kernel.NewBuilder("tag_edges")
	p := kb.BufferParam("p", false)
	lane := kb.LaneID()
	gtid := kb.GlobalTID()
	u := kb.LoadGlobal(kb.Add(p, kernel.Imm(64)), 8)
	kb.StoreGlobal(kb.AddScaled(p, kb.Sub(kernel.Imm(n-1), gtid), 4), u, 4)
	// v(lane) = tag | 2^48-16 + 8·lane: lanes 2 and up carry into the tag.
	top := kb.Sub(kernel.Imm(int64(core.AddrMask)-15), kb.And(p, kernel.Imm(int64(core.AddrMask))))
	v := kb.LoadGlobal(kb.AddScaled(kb.Add(p, top), lane, 8), 8)
	kb.StoreGlobal(kb.AddScaled(p, kb.And(gtid, kernel.Imm(n-1)), 4), kb.Add(u, v), 4)
	k := kb.MustBuild()
	st, _ := mpEquivRun(t, k, 2, 64, false, 1, driver.ModeShield, core.FailLog, n)
	if len(st.Violations) == 0 {
		t.Fatal("the carry into the pointer tag was not flagged")
	}
	mpEquivCompare(t, k, 2, 64, driver.ModeShield, core.FailLog, n)
}

// TestRegistersZeroedOnShellReuse is the cross-tenant register guarantee
// of placeWorkgroup: a second launch on the same GPU reuses the first
// launch's workgroup shells, and a register it writes only on a path no
// lane takes must still read 0 on every lane — with shape tags and on the
// reference path that clears the rows.
func TestRegistersZeroedOnShellReuse(t *testing.T) {
	const regs, block = 6, 96
	first := kernel.NewBuilder("dirty")
	fp := first.BufferParam("p", false)
	fg := first.GlobalTID()
	var dirty []kernel.Operand
	for r := 0; r < regs; r++ {
		switch r % 3 {
		case 0:
			dirty = append(dirty, first.Add(fg, kernel.Imm(int64(1000+r)))) // affine
		case 1:
			dirty = append(dirty, first.Mov(kernel.Imm(int64(-7-r)))) // uniform
		default:
			dirty = append(dirty, first.Mul(fg, fg)) // vector
		}
	}
	for r, d := range dirty {
		first.StoreGlobal(first.AddScaled(fp, first.Add(first.Mul(fg, kernel.Imm(regs)), kernel.Imm(int64(r))), 8), d, 8)
	}
	for r := 0; r < 8; r++ {
		// Spare registers: the first kernel's register file must be at
		// least the second's, or the shells get new, already-zero slabs.
		first.Mov(kernel.Imm(int64(r + 1)))
	}
	second := kernel.NewBuilder("clean")
	sp := second.BufferParam("p", false)
	sg := second.GlobalTID()
	var clean []kernel.Operand
	for r := 0; r < regs; r++ {
		clean = append(clean, second.NewReg())
	}
	second.If(second.SetLT(sg, kernel.Imm(0)), func() { // no lane takes it
		for _, c := range clean {
			second.MovTo(c, kernel.Imm(99))
		}
	})
	for r, c := range clean {
		second.StoreGlobal(second.AddScaled(sp, second.Add(second.Mul(sg, kernel.Imm(regs)), kernel.Imm(int64(r))), 8), c, 8)
	}
	k1, k2 := first.MustBuild(), second.MustBuild()
	if k1.NumRegs < k2.NumRegs {
		t.Fatalf("first kernel has %d registers, second %d: no slab would be reused", k1.NumRegs, k2.NumRegs)
	}
	for _, noSB := range []bool{false, true} {
		t.Run(fmt.Sprintf("noSuperblocks=%v", noSB), func(t *testing.T) {
			dev := driver.NewDevice(1)
			buf := dev.Malloc("p", 2*block*regs*8, false)
			cfg := NvidiaConfig()
			cfg.NoSuperblocks = noSB
			gpu := New(cfg, dev)
			for _, k := range []*kernel.Kernel{k1, k2} {
				l, err := dev.PrepareLaunch(k, 2, block, []driver.Arg{driver.BufArg(buf)}, driver.ModeOff, nil)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := gpu.Run(l); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 2*block*regs; i++ {
				if v := dev.ReadUint64(buf, i); v != 0 {
					t.Fatalf("thread %d r%d stored %d after shell reuse, want 0", i/regs, i%regs, v)
				}
			}
		})
	}
}
