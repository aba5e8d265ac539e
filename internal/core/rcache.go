package core

// The RCache hierarchy (§5.5) caches RBT entries next to the LSU. The L1
// RCache is a tiny FIFO (default 4 entries) probed in parallel with the L1
// data cache; the L2 RCache is a 64-entry fully-associative structure with
// split tag/data arrays. Entries are tagged with both the 14-bit buffer ID
// and a kernel ID so concurrent kernels can share a core's RCaches (§6.2).

// RCacheEntry is one cached bounds record. Field widths follow §5.5: 14-bit
// ID tag, 48-bit base, 32-bit size, 1-bit read-only, 12-bit kernel ID.
type RCacheEntry struct {
	ID       uint16
	KernelID uint16
	Bounds   Bounds
	valid    bool
}

// RCacheStats counts probe outcomes for one level.
type RCacheStats struct {
	Accesses uint64
	Hits     uint64
}

// HitRate returns the hit fraction (1 if never accessed).
func (s RCacheStats) HitRate() float64 {
	if s.Accesses == 0 {
		return 1
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// L1RCache is the first-in-first-out L1 RCache. Parallel tag lookup and data
// read happen in a single cycle, so an L1 hit adds no pipeline bubble.
type L1RCache struct {
	entries []RCacheEntry
	next    int // FIFO insertion cursor
	// dirty is set by Insert and cleared by Flush: a clean cache holds no
	// valid entry, so flushing it has nothing to clear.
	dirty bool
	Stats RCacheStats
}

// NewL1RCache returns an L1 RCache with n entries.
func NewL1RCache(n int) *L1RCache {
	if n <= 0 {
		n = 1
	}
	c := &L1RCache{entries: make([]RCacheEntry, n)}
	c.Reset()
	return c
}

// Lookup probes the cache for (kernelID, id).
func (c *L1RCache) Lookup(kernelID, id uint16) (Bounds, bool) {
	c.Stats.Accesses++
	for i := range c.entries {
		e := &c.entries[i]
		if e.valid && e.ID == id && e.KernelID == kernelID {
			c.Stats.Hits++
			return e.Bounds, true
		}
	}
	return Bounds{}, false
}

// Insert adds an entry, evicting in FIFO order.
func (c *L1RCache) Insert(kernelID, id uint16, b Bounds) {
	c.entries[c.next] = RCacheEntry{ID: id, KernelID: kernelID, Bounds: b, valid: true}
	c.next = (c.next + 1) % len(c.entries)
	c.dirty = true
}

// Flush invalidates all entries (kernel termination / context switch). A
// clean cache is already in that state.
func (c *L1RCache) Flush() {
	if !c.dirty {
		return
	}
	clear(c.entries)
	c.next = 0
	c.dirty = false
}

// Reset returns the cache to its constructed state: flushed, with the
// statistics cleared.
func (c *L1RCache) Reset() {
	c.Flush()
	c.Stats = RCacheStats{}
}

// Entries returns the capacity.
func (c *L1RCache) Entries() int { return len(c.entries) }

// L2RCache is the fully-associative second-level RCache with LRU
// replacement, physically split into tag and data arrays (the tag array is
// probed first; the data array is read the following cycle on a match).
type L2RCache struct {
	entries []RCacheEntry
	lastUse []uint64
	tick    uint64
	dirty   bool // as in L1RCache
	Stats   RCacheStats
}

// NewL2RCache returns an L2 RCache with n entries.
func NewL2RCache(n int) *L2RCache {
	if n <= 0 {
		n = 1
	}
	c := &L2RCache{entries: make([]RCacheEntry, n), lastUse: make([]uint64, n)}
	c.Reset()
	return c
}

// Lookup probes the cache for (kernelID, id).
func (c *L2RCache) Lookup(kernelID, id uint16) (Bounds, bool) {
	c.Stats.Accesses++
	c.tick++
	for i := range c.entries {
		e := &c.entries[i]
		if e.valid && e.ID == id && e.KernelID == kernelID {
			c.lastUse[i] = c.tick
			c.Stats.Hits++
			return e.Bounds, true
		}
	}
	return Bounds{}, false
}

// Insert adds an entry, evicting the least recently used victim.
func (c *L2RCache) Insert(kernelID, id uint16, b Bounds) {
	c.tick++
	victim := 0
	for i := range c.entries {
		if !c.entries[i].valid {
			victim = i
			break
		}
		if c.lastUse[i] < c.lastUse[victim] {
			victim = i
		}
	}
	c.entries[victim] = RCacheEntry{ID: id, KernelID: kernelID, Bounds: b, valid: true}
	c.lastUse[victim] = c.tick
	c.dirty = true
}

// Flush invalidates all entries. The LRU clock and the statistics keep
// running. A clean cache has no valid entry and, since only a hit or an
// Insert stamps one, no use stamp either, so there is nothing to clear.
func (c *L2RCache) Flush() {
	if !c.dirty {
		return
	}
	clear(c.entries)
	clear(c.lastUse)
	c.dirty = false
}

// Reset returns the cache to its constructed state: flushed, with the LRU
// clock at zero and the statistics cleared.
func (c *L2RCache) Reset() {
	c.Flush()
	c.tick = 0
	c.Stats = RCacheStats{}
}

// Entries returns the capacity.
func (c *L2RCache) Entries() int { return len(c.entries) }
