package driver

import "slices"

// pageRange is an inclusive run of mapped page numbers.
type pageRange struct{ first, last uint64 }

// pageMap is the set of mapped pages as sorted, disjoint, non-adjacent
// inclusive ranges: a lookup is a binary search, and mapping a region costs
// one insertion however many pages it spans. Page numbers stay below 2^52,
// so last+1 never overflows.
type pageMap []pageRange

// find returns the index of the first range whose last page is >= p, or
// len(m) when there is none.
func (m pageMap) find(p uint64) int {
	lo, hi := 0, len(m)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if m[h].last < p {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo
}

// covers reports whether pages first..last (first <= last) are all mapped.
// Touching ranges are always merged, so they are exactly when one range
// holds both ends.
func (m pageMap) covers(first, last uint64) bool {
	i := m.find(first)
	return i < len(m) && m[i].first <= first && last <= m[i].last
}

// add maps pages first..last (first <= last), merging every range it
// overlaps or touches so that adjacent ranges never coexist.
func (m *pageMap) add(first, last uint64) {
	r := *m
	// i: first range that overlaps or touches [first, last] from the left.
	i := r.find(first)
	if i > 0 && r[i-1].last+1 == first {
		i--
	}
	// j: one past the last range that starts at or before last+1.
	j := i
	for j < len(r) && r[j].first <= last+1 {
		j++
	}
	if i < j {
		first, last = min(first, r[i].first), max(last, r[j-1].last)
	}
	*m = slices.Replace(r, i, j, pageRange{first, last})
}
