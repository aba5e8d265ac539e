// Package memsys provides the memory-system building blocks used by the
// cycle-level GPU model: set-associative caches, TLBs, an FR-FCFS DRAM
// model, and the byte-addressable backing store that holds simulated device
// memory contents.
package memsys

import (
	"fmt"
	"math/bits"
)

// CacheConfig describes a set-associative cache.
type CacheConfig struct {
	Name       string
	SizeBytes  int // total data capacity
	LineBytes  int // line (block) size
	Ways       int // associativity; Ways == SizeBytes/LineBytes makes it fully associative
	HitLatency int // cycles
}

// CacheStats accumulates access counts.
type CacheStats struct {
	Accesses uint64
	Hits     uint64
	Misses   uint64
}

// HitRate returns hits/accesses, or 1 when the cache was never accessed.
func (s CacheStats) HitRate() float64 {
	if s.Accesses == 0 {
		return 1
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// cacheLine is one way of a set. lastUse == 0 marks an invalid line: every
// fill and hit stamps the owner's tick, which is incremented first and so is
// at least 1, so a valid line never carries 0.
type cacheLine struct {
	tag     uint64
	lastUse uint64
}

// lruSets is the set-associative LRU core shared by Cache and TLB: one flat
// line array of numSets × ways, set s occupying lines[s*ways : (s+1)*ways].
// Keys are addresses shifted right by the granule (line or page) bits.
//
// Two per-set side arrays keep the common operations short. mru[s] is the
// way of set s that last hit or filled; a lookup checks it before scanning
// the set, which in a lightly filled 64-way TLB saves the walk past every
// invalid way (a key sits in at most one way, so the order of the checks
// cannot change the answer). Bit s of dirty is set when a fill writes set
// s, so Flush clears only the sets that hold a valid line instead of the
// whole array.
type lruSets struct {
	lines   []cacheLine
	mru     []uint32
	dirty   []uint64
	numSets uint64
	pow2    bool // numSets is a power of two: index sets with a mask
	ways    int
	shift   uint
	useTick uint64
	Stats   CacheStats
}

func newLRUSets(numSets, ways, granuleBytes int) lruSets {
	s := lruSets{
		lines:   make([]cacheLine, numSets*ways),
		mru:     make([]uint32, numSets),
		dirty:   make([]uint64, (numSets+63)/64),
		numSets: uint64(numSets),
		pow2:    numSets&(numSets-1) == 0,
		ways:    ways,
	}
	for b := granuleBytes; b > 1; b >>= 1 {
		s.shift++
	}
	s.Reset()
	return s
}

// setOf returns the index of the set key maps to.
func (s *lruSets) setOf(key uint64) int {
	if s.pow2 {
		return int(key & (s.numSets - 1))
	}
	return int(key % s.numSets)
}

// lookup returns the set key maps to, its index and the way holding key,
// or -1.
func (s *lruSets) lookup(key uint64) ([]cacheLine, int, int) {
	si := s.setOf(key)
	base := si * s.ways
	set := s.lines[base : base+s.ways : base+s.ways]
	if l := &set[s.mru[si]]; l.tag == key && l.lastUse != 0 {
		return set, si, int(s.mru[si])
	}
	for i := range set {
		if set[i].tag == key && set[i].lastUse != 0 {
			return set, si, i
		}
	}
	return set, si, -1
}

// Access looks up addr and updates LRU state, allocating on a miss
// (allocate-on-miss for both reads and writes). It reports whether the
// access hit. Access is the apply half of the probe/apply split: it mutates
// LRU state and statistics, so under the two-phase scheduler it must only
// run in the serial commit phase.
func (s *lruSets) Access(addr uint64) bool {
	s.useTick++
	s.Stats.Accesses++
	key := addr >> s.shift
	set, si, i := s.lookup(key)
	if i >= 0 {
		set[i].lastUse = s.useTick
		s.mru[si] = uint32(i)
		s.Stats.Hits++
		return true
	}
	s.Stats.Misses++
	// Victim: the last invalid way, otherwise the least recently used. An
	// invalid way's lastUse of 0 is below every valid stamp, and valid
	// stamps are distinct, so "<=" selects exactly that.
	victim := 0
	for i := range set {
		if set[i].lastUse <= set[victim].lastUse {
			victim = i
		}
	}
	set[victim] = cacheLine{tag: key, lastUse: s.useTick}
	s.mru[si] = uint32(victim)
	s.dirty[si/64] |= 1 << (si % 64)
	return false
}

// Probe reports whether addr is resident without changing any state: no
// LRU update, no allocation, no statistics. It is the read-only half of the
// probe/apply split the simulator's two-phase scheduler relies on: a
// parallel planning phase may Probe shared caches and TLBs freely, while
// mutation is reserved for the serial commit phase.
func (s *lruSets) Probe(addr uint64) bool {
	_, _, i := s.lookup(addr >> s.shift)
	return i >= 0
}

// Flush invalidates every line (kernel termination / context switch). The
// LRU clock and the statistics keep running. Only a set a fill wrote since
// the last flush can hold a valid line or a nonzero MRU way, so only those
// sets are cleared.
func (s *lruSets) Flush() {
	for w := range s.dirty {
		for word := s.dirty[w]; word != 0; word &= word - 1 {
			si := w*64 + bits.TrailingZeros64(word)
			clear(s.lines[si*s.ways : (si+1)*s.ways])
			s.mru[si] = 0
		}
		s.dirty[w] = 0
	}
}

// Reset returns the structure to its constructed state: every line invalid,
// the LRU clock at zero and the statistics cleared. The arrays are kept.
// Like Flush it writes only the sets that were filled, so a new structure's
// line array stays unwritten (the 256 KB L2 array of a GPU becomes resident
// only as lines fill) and a reset costs what the last run filled.
func (s *lruSets) Reset() {
	s.Flush()
	s.useTick = 0
	s.Stats = CacheStats{}
}

// Cache is a set-associative LRU cache model. It tracks presence only — data
// contents live in the backing store — which is the standard structure for
// timing simulation.
type Cache struct {
	cfg CacheConfig
	lruSets
}

// Validate reports whether the geometry describes a constructible cache.
func (cfg CacheConfig) Validate() error {
	if cfg.LineBytes <= 0 || cfg.SizeBytes <= 0 || cfg.Ways <= 0 {
		return fmt.Errorf("memsys: bad cache config %+v", cfg)
	}
	if cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		return fmt.Errorf("memsys: %s: line size %d is not a power of two", cfg.Name, cfg.LineBytes)
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	if lines == 0 || lines%cfg.Ways != 0 {
		return fmt.Errorf("memsys: %s: %d lines not divisible by %d ways", cfg.Name, lines, cfg.Ways)
	}
	return nil
}

// NewCache builds a cache from cfg, rejecting malformed geometries with an
// error so a bad runtime configuration degrades into a typed failure instead
// of crashing the process.
func NewCache(cfg CacheConfig) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	numSets := cfg.SizeBytes / cfg.LineBytes / cfg.Ways
	return &Cache{cfg: cfg, lruSets: newLRUSets(numSets, cfg.Ways, cfg.LineBytes)}, nil
}

// MustCache is NewCache for the built-in simulator presets, whose geometries
// are known good; it panics on error and must not be fed runtime input.
func MustCache(cfg CacheConfig) *Cache {
	c, err := NewCache(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr &^ uint64(c.cfg.LineBytes-1) }

// HitLatency returns the configured hit latency in cycles.
func (c *Cache) HitLatency() int { return c.cfg.HitLatency }
