package sim

import (
	"encoding/binary"
	"math"
	"math/bits"

	"gpushield/internal/core"
	"gpushield/internal/driver"
	"gpushield/internal/kernel"
)

// Warp memory plans (the LSU analogue of superblocks): address generation
// classifies each dynamic global access by stride (uniform / unit-stride /
// strided / indirect), which lets memCommit:
//
//   - clear the page-fault check for the whole transaction with one mapped
//     range sweep instead of a per-lane page-table probe;
//   - resolve the bounds check through a per-site decrypt memo
//     (core.CheckMemo, coreState.memos) so the Feistel network runs once
//     per (buffer, kernel) instead of once per instruction — the software
//     mirror of the paper's RCache locality;
//   - read a uniform load once, and service dense unit-stride loads and
//     stores through one backing-store span instead of 32 scalar accesses.
//
// An address or offset register with an affine shape (shape.go) is
// classified from its tag: class, byte range and lines follow from the
// first and last active lane in O(1). Vector-shaped registers, and affine
// ones whose lane addresses cannot be proven monotone (a negative slope, a
// carry into the pointer-tag bits, a wrap of the address space), take the
// per-lane scan.
//
// Equivalence with the reference path is held the same way superblocks hold
// it: nothing timing-visible is memoized. The generated addresses, offsets,
// pointer tag, byte range, and coalesced line sequence are bit-identical to
// memGenRef's by construction (monotonicity and wrap guards force the
// reference loop whenever arithmetic generation would not be provably
// exact), and every BCU counter, RCache access, bubble, and violation fires
// through the same code. GPUSHIELD_NO_MEMPLANS / Config.NoMemPlans forces
// the reference path; the equivalence tests and the fuzz-smoke differential
// leg diff the two.

// Transaction classes assigned by the planned address generator.
const (
	memClassRef      uint8 = iota // reference generator: no plan metadata
	memClassIndirect              // no provable structure
	memClassUniform               // all active lanes hit the same address
	memClassUnit                  // dense unit stride: addr[i+1] = addr[i]+bytes
	memClassStrided               // constant stride wider than the access
)

// laneList returns the dense active-lane list for gmask, rebuilding the
// warp's cache only when the mask diverges from the last memory access's.
// The rebuild also records memGap, the common distance between
// consecutive active lanes: 0 when uneven, 1 for a single lane.
func (w *warp) laneList(gmask uint64) []int32 {
	if w.memMask == gmask {
		return w.memLanes
	}
	lns := w.memLanes[:0]
	for lanes := gmask; lanes != 0; lanes &= lanes - 1 {
		lns = append(lns, int32(bits.TrailingZeros64(lanes)))
	}
	gap := int32(1)
	if len(lns) > 1 {
		gap = lns[1] - lns[0]
		for i := 2; i < len(lns); i++ {
			if lns[i]-lns[i-1] != gap {
				gap = 0
				break
			}
		}
	}
	w.memMask, w.memLanes, w.memGap = gmask, lns, gap
	return lns
}

// memGenFast is the planned address generator: it fills prep exactly as
// memGenRef would — same addresses, offsets, pointer tag, byte range, and
// coalesced line sequence — while classifying the access so memCommit can
// batch the page check, the bounds check, and the functional access. It
// returns false for local-space accesses, sending the caller to the
// reference generator.
func (c *coreState) memGenFast(w *warp, in *kernel.Instr, gmask uint64, prep *memPrep) bool {
	if in.Space == kernel.SpaceLocal {
		return false
	}
	r := w.wg.run
	prep.lanes = w.laneList(gmask)
	prep.memo = &c.memos[r.tab.sites[w.pc]]
	bytes := uint64(in.Bytes)
	if in.Src[0].Kind == kernel.OperandParam {
		// Method C: uniform tagged base param + explicit offset.
		prep.ptr = r.launch.Args[in.Src[0].Param]
		off := c.src(w, in.Src[1])
		if off.row != nil || !c.affineParam(w, &off, gmask, prep, bytes) {
			c.memScanParam(r.launch, &off, gmask, prep, bytes)
		}
		return true
	}
	// Method B: a register holds the full (possibly tagged) address; an
	// absent offset operand resolves to uniform 0.
	p0, p1 := c.src(w, in.Src[0]), c.src(w, in.Src[1])
	if p0.row != nil || p1.row != nil ||
		!c.affineReg(w, p0.base+p1.base, p0.slope+p1.slope, gmask, prep, bytes) {
		c.memScanReg(r.launch, &p0, &p1, gmask, prep, bytes)
	}
	return true
}

// affineSpan returns slope·n, the distance between the first and the last
// active lane's address, when the slope is non-negative and the distance
// is at most limit.
func affineSpan(slope, n int64, limit uint64) (uint64, bool) {
	if slope < 0 {
		return 0, false
	}
	hi, lo := bits.Mul64(uint64(slope), uint64(n))
	return lo, hi == 0 && lo <= limit
}

// affineReg generates a Method-B access whose address register is affine,
// v(lane) = base + slope·lane, from its tag. Each lane's address is the
// reference's per-lane arithmetic; the byte range and class follow from
// the first and last active lane when the tag-stripped addresses provably
// stay monotone: a non-negative slope and no carry out of the 48 address
// bits between those lanes. Consecutive active lanes then sit slope·memGap
// apart, the stride the scan would measure. It returns false, leaving the
// access to the scan, otherwise. The pointer tag is the first active
// lane's, as in memGenRef.
func (c *coreState) affineReg(w *warp, base, slope int64, gmask uint64, prep *memPrep, bytes uint64) bool {
	lanes := prep.lanes
	l0, l1 := int64(lanes[0]), int64(lanes[len(lanes)-1])
	v0 := uint64(base + slope*l0)
	a0 := core.Addr(v0)
	span, ok := affineSpan(slope, l1-l0, core.AddrMask-a0)
	if !ok {
		return false
	}
	for _, ln := range lanes {
		prep.addrs[ln] = core.Addr(uint64(base + slope*int64(ln)))
		prep.offs[ln] = 0
	}
	prep.ptr = v0
	prep.minAddr, prep.maxAddr = a0, a0+span+bytes-1
	prep.minOfs, prep.maxOfs = 0, int64(bytes)-1
	c.classifyAndCoalesce(w.wg.run.launch, gmask, prep, bytes, true, slope == 0 || w.memGap != 0, slope*int64(w.memGap), false)
	return true
}

// affineParam is affineReg for a Method-C access with an affine offset:
// the offsets must provably stay monotone without overflowing int64, and
// the addresses (untagged base + offset) without wrapping the address
// space.
func (c *coreState) affineParam(w *warp, off *val, gmask uint64, prep *memPrep, bytes uint64) bool {
	lanes := prep.lanes
	l0, l1 := int64(lanes[0]), int64(lanes[len(lanes)-1])
	ab := core.Addr(prep.ptr)
	o0 := off.base + off.slope*l0
	a0 := ab + uint64(o0)
	// Headroom above the first lane's offset and address; the last lane's
	// access must end inside both.
	room := min(uint64(math.MaxInt64)-uint64(o0), ^uint64(0)-a0)
	if room < bytes-1 {
		return false
	}
	span, ok := affineSpan(off.slope, l1-l0, room-(bytes-1))
	if !ok {
		return false
	}
	for _, ln := range lanes {
		o := off.base + off.slope*int64(ln)
		prep.offs[ln] = o
		prep.addrs[ln] = ab + uint64(o)
	}
	prep.minAddr, prep.maxAddr = a0, a0+span+bytes-1
	prep.minOfs, prep.maxOfs = o0, int64(uint64(o0)+span+bytes-1)
	c.classifyAndCoalesce(w.wg.run.launch, gmask, prep, bytes, true, off.slope == 0 || w.memGap != 0, off.slope*int64(w.memGap), false)
	return true
}

// memScanParam generates addresses for a Method-C access (uniform tagged
// base + explicit per-lane offset), tracking the byte range and the stride
// evidence the classifier needs. The arithmetic per lane is identical to
// memGenRef's Method-C case.
func (c *coreState) memScanParam(l *driver.Launch, off *val, gmask uint64, prep *memPrep, bytes uint64) {
	ab := core.Addr(prep.ptr)
	lanes := prep.lanes
	var (
		minA     = ^uint64(0)
		maxA     uint64
		minO     = int64(math.MaxInt64)
		maxO     = int64(math.MinInt64)
		mono     = true
		strideOK = true
		stride   int64
		wrapped  bool
		prev     uint64
	)
	for i, ln := range lanes {
		o := off.at(int(ln))
		a := ab + uint64(o)
		prep.addrs[ln] = a
		prep.offs[ln] = o
		if a < minA {
			minA = a
		}
		hi := a + bytes - 1
		if hi > maxA {
			maxA = hi
		}
		if hi < a {
			wrapped = true
		}
		if o < minO {
			minO = o
		}
		if oh := o + int64(bytes) - 1; oh > maxO {
			maxO = oh
		}
		if i == 1 {
			if a < prev {
				mono = false
			} else {
				stride = int64(a - prev)
			}
		} else if i > 1 {
			if a < prev {
				mono = false
			} else if int64(a-prev) != stride {
				strideOK = false
			}
		}
		prev = a
	}
	prep.minAddr, prep.maxAddr = minA, maxA
	prep.minOfs, prep.maxOfs = minO, maxO
	c.classifyAndCoalesce(l, gmask, prep, bytes, mono, strideOK, stride, wrapped)
}

// memScanReg generates addresses for a Method-B access (a register carries
// the full, possibly tagged, address) lane by lane. The pointer tag comes
// from the first active lane's untruncated value, exactly as in memGenRef;
// tag-stripped addresses fit in 48 bits, so per-lane spans can never wrap
// uint64.
func (c *coreState) memScanReg(l *driver.Launch, p0, p1 *val, gmask uint64, prep *memPrep, bytes uint64) {
	lanes := prep.lanes
	var (
		minA     = ^uint64(0)
		maxA     uint64
		mono     = true
		strideOK = true
		stride   int64
		prev     uint64
	)
	for i, ln := range lanes {
		v := uint64(p0.at(int(ln))) + uint64(p1.at(int(ln)))
		if i == 0 {
			prep.ptr = v
		}
		a := core.Addr(v)
		prep.addrs[ln] = a
		prep.offs[ln] = 0
		if a < minA {
			minA = a
		}
		if hi := a + bytes - 1; hi > maxA {
			maxA = hi
		}
		if i == 1 {
			if a < prev {
				mono = false
			} else {
				stride = int64(a - prev)
			}
		} else if i > 1 {
			if a < prev {
				mono = false
			} else if int64(a-prev) != stride {
				strideOK = false
			}
		}
		prev = a
	}
	prep.minAddr, prep.maxAddr = minA, maxA
	prep.minOfs, prep.maxOfs = 0, int64(bytes)-1
	c.classifyAndCoalesce(l, gmask, prep, bytes, mono, strideOK, stride, false)
}

// classifyAndCoalesce assigns the transaction class from the address
// evidence and produces the coalesced line sequence — arithmetically when
// the shape makes that provably exact, through the reference ACU loop
// otherwise. The emitted lines are identical to memGenRef's in content and
// order (order matters: memAccess mutates cache, TLB, and DRAM state per
// line).
func (c *coreState) classifyAndCoalesce(l *driver.Launch, gmask uint64, prep *memPrep, bytes uint64, mono, strideOK bool, stride int64, wrapped bool) {
	lineBytes := uint64(c.gpu.cfg.L1D.LineBytes)
	lanes := prep.lanes
	class := memClassIndirect
	if mono && strideOK {
		switch {
		case len(lanes) == 1 || stride == 0:
			class = memClassUniform
		case stride == int64(bytes):
			class = memClassUnit
		case stride > int64(bytes):
			// Narrower strides overlap lane spans, so a line can recur
			// after another one and only the full dedup is exact.
			class = memClassStrided
		}
	}
	prep.class, prep.wrapped = class, wrapped

	// Arithmetic line generation is exact only for monotone, wrap-free
	// address vectors under coalescing; anything else — including a line
	// walk that could step past the top of the address space — replays the
	// reference loop over the already-generated addresses.
	if l.NoCoalesce || class == memClassIndirect || wrapped ||
		prep.maxAddr >= ^uint64(0)-lineBytes {
		prep.nLines = c.coalesceRef(l, gmask, prep, bytes)
		return
	}
	lineMask := ^(lineBytes - 1)
	switch class {
	case memClassUniform:
		// Every lane repeats the same span: lane 0's line walk, dedup-free.
		a := prep.addrs[lanes[0]]
		nl := 0
		for la := a & lineMask; la <= (a+bytes-1)&lineMask && nl < len(prep.lines); la += lineBytes {
			prep.lines[nl] = la
			nl++
		}
		prep.nLines = nl
	case memClassUnit:
		// The warp touches every byte of [addr0, maxAddr], so every line in
		// between appears exactly once, ascending.
		last := prep.maxAddr & lineMask
		nl := 0
		for la := prep.addrs[lanes[0]] & lineMask; nl < len(prep.lines); la += lineBytes {
			prep.lines[nl] = la
			nl++
			if la == last {
				break
			}
		}
		prep.nLines = nl
	default: // memClassStrided
		// Monotone addresses: a duplicate line can only repeat the one just
		// emitted, so dedup-against-last reproduces the full-array dedup.
		const noLine = 1 // not line-aligned: never equals a real line address
		lastEmit := uint64(noLine)
		nl := 0
		for _, ln := range lanes {
			a := prep.addrs[ln]
			for la := a & lineMask; la <= (a+bytes-1)&lineMask; la += lineBytes {
				if la != lastEmit && nl < len(prep.lines) {
					prep.lines[nl] = la
					lastEmit = la
					nl++
				}
			}
		}
		prep.nLines = nl
	}
}

// coalesceRef is the reference ACU loop over already-generated addresses:
// per active lane ascending, per touched line, full-array dedup unless
// NoCoalesce, capped at len(prep.lines). An access in the last line of the
// address space ends the walk there instead of wrapping to line 0.
func (c *coreState) coalesceRef(l *driver.Launch, gmask uint64, prep *memPrep, bytes uint64) int {
	lineBytes := uint64(c.gpu.cfg.L1D.LineBytes)
	lineMask := ^(lineBytes - 1)
	lines := &prep.lines
	nLines := 0
	for lanes := gmask; lanes != 0; {
		lane := bits.TrailingZeros64(lanes)
		lanes &^= 1 << uint(lane)
		a := prep.addrs[lane]
		last := (a + bytes - 1) & lineMask
		for la := a & lineMask; la <= last; la += lineBytes {
			found := false
			if !l.NoCoalesce {
				for i := 0; i < nLines; i++ {
					if lines[i] == la {
						found = true
						break
					}
				}
			}
			if !found && nLines < len(lines) {
				lines[nLines] = la
				nLines++
			}
			if la == last {
				break
			}
		}
	}
	return nLines
}

// rangeMapped reports whether the transaction's whole byte range is provably
// on mapped pages: a plan-classified, wrap-free address vector whose span
// covers few enough pages to sweep. Exact on success — with no per-lane
// wrap, every lane's interval lies inside [minAddr, maxAddr]. A false
// return means "take the per-lane walk", not "unmapped".
func (c *coreState) rangeMapped(prep *memPrep) bool {
	if prep.class == memClassRef || prep.wrapped {
		return false
	}
	lo, hi := prep.minAddr, prep.maxAddr
	if hi < lo || hi/driver.PageBytes-lo/driver.PageBytes >= 64 {
		return false
	}
	return c.gpu.dev.MappedRange(lo, hi)
}

// batchLoad services a dense unit-stride load whose bytes land in one
// backing chunk through a single span: lane i reads span[i*bytes:]. A false
// return (chunk straddle, unsupported width) sends the caller to the
// per-lane path. The same bytes are read with the same widening rules as
// loadValue, so the register file ends up bit-identical.
func (c *coreState) batchLoad(w *warp, in *kernel.Instr, gmask uint64, prep *memPrep) bool {
	lanes := prep.lanes
	sp := c.gpu.dev.Mem.Span(prep.addrs[lanes[0]], len(lanes)*in.Bytes)
	if sp == nil {
		return false
	}
	row := w.dstRow(in.Dst, gmask)
	switch {
	case in.F32 && in.Bytes == 4:
		for i, ln := range lanes {
			raw := binary.LittleEndian.Uint32(sp[i*4:])
			row[ln] = kernel.F2B(float64(math.Float32frombits(raw)))
		}
	case in.Bytes == 8:
		for i, ln := range lanes {
			row[ln] = int64(binary.LittleEndian.Uint64(sp[i*8:]))
		}
	case in.Bytes == 4:
		for i, ln := range lanes {
			row[ln] = int64(int32(binary.LittleEndian.Uint32(sp[i*4:])))
		}
	case in.Bytes == 2:
		for i, ln := range lanes {
			row[ln] = int64(binary.LittleEndian.Uint16(sp[i*2:]))
		}
	case in.Bytes == 1:
		for i, ln := range lanes {
			row[ln] = int64(sp[i])
		}
	default:
		return false
	}
	return true
}

// batchStore is batchLoad's store dual: lane values narrow into one span,
// byte-identical to per-lane storeValue calls.
func (c *coreState) batchStore(in *kernel.Instr, prep *memPrep, p2 *val) bool {
	lanes := prep.lanes
	sp := c.gpu.dev.Mem.Span(prep.addrs[lanes[0]], len(lanes)*in.Bytes)
	if sp == nil {
		return false
	}
	switch {
	case in.F32 && in.Bytes == 4:
		for i, ln := range lanes {
			raw := math.Float32bits(float32(kernel.B2F(p2.at(int(ln)))))
			binary.LittleEndian.PutUint32(sp[i*4:], raw)
		}
	case in.Bytes == 8:
		for i, ln := range lanes {
			binary.LittleEndian.PutUint64(sp[i*8:], uint64(p2.at(int(ln))))
		}
	case in.Bytes == 4:
		for i, ln := range lanes {
			binary.LittleEndian.PutUint32(sp[i*4:], uint32(p2.at(int(ln))))
		}
	case in.Bytes == 2:
		for i, ln := range lanes {
			binary.LittleEndian.PutUint16(sp[i*2:], uint16(p2.at(int(ln))))
		}
	case in.Bytes == 1:
		for i, ln := range lanes {
			sp[i] = byte(p2.at(int(ln)))
		}
	default:
		return false
	}
	return true
}
