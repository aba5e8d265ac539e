package driver

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// refPages is the page set the driver kept before the interval map: one
// map entry per mapped page, filled by the original per-page loop.
type refPages map[uint64]bool

func (r refPages) mapRange(base, size uint64) {
	for p := base / PageBytes; p <= (base+size-1)/PageBytes; p++ {
		r[p] = true
	}
}

func (r refPages) mappedRange(lo, hi uint64) bool {
	for p := lo / PageBytes; p <= hi/PageBytes; p++ {
		if !r[p] {
			return false
		}
	}
	return true
}

// pageMapChecker diffs a device's Mapped/MappedRange against the reference.
type pageMapChecker struct {
	t   *testing.T
	dev *Device
	ref refPages
	tag string
}

func (c *pageMapChecker) point(addr uint64) {
	c.t.Helper()
	if got, want := c.dev.Mapped(addr), c.ref[addr/PageBytes]; got != want {
		c.t.Fatalf("%s: Mapped(%#x) = %v, reference %v", c.tag, addr, got, want)
	}
}

func (c *pageMapChecker) span(lo, hi uint64) {
	c.t.Helper()
	if got, want := c.dev.MappedRange(lo, hi), c.ref.mappedRange(lo, hi); got != want {
		c.t.Fatalf("%s: MappedRange(%#x, %#x) = %v, reference %v", c.tag, lo, hi, got, want)
	}
}

// edges probes the bytes and pages around [base, base+size): both ends,
// one byte and one page beyond each, and spans crossing each edge.
func (c *pageMapChecker) edges(base, size uint64) {
	c.t.Helper()
	end := base + size
	for _, a := range []uint64{base - PageBytes, base - 1, base, end - 1, end, end + PageBytes} {
		c.point(a)
	}
	if size > 0 {
		c.span(base, end-1)
	}
	c.span(base-1, base)
	c.span(end-1, end)
	c.span(base-PageBytes, end+PageBytes)
}

// invariant checks the interval list itself: sorted, each range non-empty,
// neighbours neither overlapping nor touching, and exactly the reference's
// page count.
func (c *pageMapChecker) invariant() {
	c.t.Helper()
	var pages uint64
	for i, r := range c.dev.mapped {
		if r.first > r.last {
			c.t.Fatalf("%s: empty range %d: %+v", c.tag, i, r)
		}
		if i > 0 && c.dev.mapped[i-1].last+1 >= r.first {
			c.t.Fatalf("%s: ranges %d and %d overlap or touch: %+v %+v", c.tag, i-1, i, c.dev.mapped[i-1], r)
		}
		pages += r.last - r.first + 1
	}
	if pages != uint64(len(c.ref)) {
		c.t.Fatalf("%s: interval map holds %d pages, reference %d", c.tag, pages, len(c.ref))
	}
}

// TestPageMapMatchesPerPageReference runs random allocation sequences —
// Malloc, MallocManaged with 2 MB spills, SetHeapLimit (growing, shrinking
// and re-covering the same heap), AllocLocal with zero-size variables — and
// requires Mapped and MappedRange to agree with the per-page reference at
// every range edge, in the gaps and across merged neighbours.
func TestPageMapMatchesPerPageReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := &pageMapChecker{t: t, dev: NewDevice(seed), ref: refPages{}}
		for step := 0; step < 60; step++ {
			switch op := rng.Intn(4); op {
			case 0:
				size := uint64(rng.Intn(3 * PageBytes))
				if rng.Intn(4) == 0 {
					size = uint64(rng.Intn(4 << 20))
				}
				b := c.dev.Malloc("b", size, false)
				c.tag = fmt.Sprintf("seed %d step %d Malloc(%d)", seed, step, size)
				c.ref.mapRange(b.Base, b.Padded)
				c.edges(b.Base, b.Padded)
			case 1:
				size := uint64(rng.Intn(SVMAlignBytes * 4))
				if rng.Intn(3) == 0 {
					size = uint64(rng.Intn(3 * SVMPageBytes)) // spills into later 2 MB pages
				}
				b := c.dev.MallocManaged("m", size)
				c.tag = fmt.Sprintf("seed %d step %d MallocManaged(%d)", seed, step, size)
				for p := b.Base / SVMPageBytes * SVMPageBytes; p <= (b.Base+b.Size-1)/SVMPageBytes*SVMPageBytes; p += SVMPageBytes {
					c.ref.mapRange(p, SVMPageBytes)
				}
				c.edges(b.Base/SVMPageBytes*SVMPageBytes, (b.Base+b.Size-1)/SVMPageBytes*SVMPageBytes+SVMPageBytes)
			case 2:
				size := uint64(rng.Intn(12 << 20))
				if rng.Intn(4) == 0 {
					size = 0 // the 8 MB default
				}
				c.dev.SetHeapLimit(size)
				c.tag = fmt.Sprintf("seed %d step %d SetHeapLimit(%d)", seed, step, size)
				c.ref.mapRange(heapBase, c.dev.heap.Size)
				c.edges(heapBase, c.dev.heap.Size)
			case 3:
				vars := make([]LocalRegion, 1+rng.Intn(3))
				for i := range vars {
					vars[i] = LocalRegion{PerThread: rng.Intn(3) * 4 * rng.Intn(5), Threads: 1 + rng.Intn(2048)}
				}
				c.dev.AllocLocal(vars)
				c.tag = fmt.Sprintf("seed %d step %d AllocLocal(%+v)", seed, step, vars)
				for _, v := range vars {
					c.ref.mapRange(v.Base, v.Size)
				}
				for _, v := range vars {
					c.edges(v.Base, v.Size)
				}
			}
			c.invariant()
		}

		// Sweep every maximal run of the reference: its edges, the pages
		// either side, spans bridging it to the next run, and random spans
		// around it.
		c.tag = fmt.Sprintf("seed %d final", seed)
		pages := make([]uint64, 0, len(c.ref))
		for p := range c.ref {
			pages = append(pages, p)
		}
		sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
		var runs [][2]uint64
		for _, p := range pages {
			if n := len(runs); n > 0 && runs[n-1][1]+1 == p {
				runs[n-1][1] = p
			} else {
				runs = append(runs, [2]uint64{p, p})
			}
		}
		if len(runs) != len(c.dev.mapped) {
			t.Fatalf("%s: %d reference runs, %d intervals", c.tag, len(runs), len(c.dev.mapped))
		}
		for i, r := range runs {
			lo, hi := r[0]*PageBytes, r[1]*PageBytes+PageBytes-1
			c.edges(lo, hi-lo+1)
			if i+1 < len(runs) {
				c.span(hi, runs[i+1][0]*PageBytes) // across the gap
			}
			for k := 0; k < 8; k++ {
				a := lo - 2*PageBytes + uint64(rng.Int63n(int64(hi-lo+4*PageBytes)))
				c.point(a)
				c.span(a, a+uint64(rng.Intn(4*PageBytes)))
			}
		}
	}
}

// TestPageMapAddMerges pins the insertion cases directly: append, insert
// before, bridge two ranges, swallow several, and touch without overlap.
func TestPageMapAddMerges(t *testing.T) {
	var m pageMap
	steps := []struct {
		first, last uint64
		want        pageMap
	}{
		{10, 12, pageMap{{10, 12}}},
		{20, 20, pageMap{{10, 12}, {20, 20}}},
		{2, 3, pageMap{{2, 3}, {10, 12}, {20, 20}}},
		{13, 13, pageMap{{2, 3}, {10, 13}, {20, 20}}},          // touches on the right
		{9, 9, pageMap{{2, 3}, {9, 13}, {20, 20}}},             // touches on the left
		{15, 18, pageMap{{2, 3}, {9, 13}, {15, 18}, {20, 20}}}, // lands in a gap
		{14, 19, pageMap{{2, 3}, {9, 20}}},                     // bridges three ranges
		{0, 0, pageMap{{0, 0}, {2, 3}, {9, 20}}},               // page 0
		{1, 30, pageMap{{0, 30}}},                              // swallows everything
		{5, 7, pageMap{{0, 30}}},                               // already covered
		{40, 50, pageMap{{0, 30}, {40, 50}}},                   // append
		{31, 39, pageMap{{0, 50}}},                             // fills the gap exactly
	}
	for i, s := range steps {
		m.add(s.first, s.last)
		if fmt.Sprint(m) != fmt.Sprint(s.want) {
			t.Fatalf("step %d add(%d, %d): got %v, want %v", i, s.first, s.last, m, s.want)
		}
	}
}
