package memsys

import (
	"fmt"
	"math/rand"
	"testing"
)

// refSets is the per-set [][]line LRU model Cache and TLB used before they
// shared the flat lruSets core, kept verbatim as the differential reference:
// an explicit valid bit, one slice per set, and the victim rule "last
// invalid way, otherwise least lastUse".
type refSets struct {
	sets    [][]refLine
	numSets uint64
	shift   uint
	useTick uint64
	stats   CacheStats
}

type refLine struct {
	tag     uint64
	valid   bool
	lastUse uint64
}

func newRefSets(numSets, ways, granuleBytes int) *refSets {
	r := &refSets{numSets: uint64(numSets)}
	r.sets = make([][]refLine, numSets)
	for i := range r.sets {
		r.sets[i] = make([]refLine, ways)
	}
	for b := granuleBytes; b > 1; b >>= 1 {
		r.shift++
	}
	return r
}

func (r *refSets) access(addr uint64) bool {
	r.useTick++
	r.stats.Accesses++
	tag := addr >> r.shift
	set := r.sets[tag%r.numSets]
	victim := 0
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lastUse = r.useTick
			r.stats.Hits++
			return true
		}
		if !set[i].valid {
			victim = i
		} else if set[victim].valid && set[i].lastUse < set[victim].lastUse {
			victim = i
		}
	}
	r.stats.Misses++
	set[victim] = refLine{tag: tag, valid: true, lastUse: r.useTick}
	return false
}

func (r *refSets) probe(addr uint64) bool {
	tag := addr >> r.shift
	for _, l := range r.sets[tag%r.numSets] {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

func (r *refSets) flush() {
	for _, set := range r.sets {
		for i := range set {
			set[i] = refLine{}
		}
	}
}

// lruModel is what Cache and TLB both expose.
type lruModel interface {
	Access(addr uint64) bool
	Probe(addr uint64) bool
	Flush()
}

// diffLRU drives dut and ref with one seeded stream of accesses, probes and
// occasional flushes and fails at the first divergence in a hit/miss
// verdict, a probe answer or the statistics. Addresses come from a pool of
// about twice the capacity in granules, scattered over a wide range so every
// set sees conflicts, with a bias towards recently used granules so hits
// and LRU promotions are common, and runs that repeat the previous granule
// at another offset, the pattern a set's MRU way serves. The pool includes
// key 0, so an invalid line's zero tag must never count as a hit.
func diffLRU(t *testing.T, dut lruModel, stats func() CacheStats, ref *refSets, lines, granule int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pool := make([]uint64, 2*lines+3)
	for i := range pool {
		pool[i] = uint64(rng.Int63n(1<<36))*uint64(granule) + uint64(rng.Intn(granule))
	}
	// Key 0 is the tag a zeroed (invalid) line carries.
	pool[0], pool[1] = 0, uint64(granule-1)
	var recent []uint64
	var addr uint64
	for step := 0; step < 20000; step++ {
		switch r := rng.Intn(12); {
		case step > 0 && r < 3:
			addr = addr&^uint64(granule-1) + uint64(rng.Intn(granule))
		case len(recent) > 0 && r < 7:
			addr = recent[rng.Intn(len(recent))]
		default:
			addr = pool[rng.Intn(len(pool))]
		}
		switch op := rng.Intn(100); {
		case op < 2:
			dut.Flush()
			ref.flush()
			for _, a := range pool {
				if dut.Probe(a) {
					t.Fatalf("seed %d step %d: %#x resident after Flush", seed, step, a)
				}
			}
			recent = recent[:0]
		case op < 20:
			if got, want := dut.Probe(addr), ref.probe(addr); got != want {
				t.Fatalf("seed %d step %d: Probe(%#x) = %v, reference %v", seed, step, addr, got, want)
			}
		default:
			if got, want := dut.Access(addr), ref.access(addr); got != want {
				t.Fatalf("seed %d step %d: Access(%#x) hit = %v, reference %v", seed, step, addr, got, want)
			}
			if len(recent) < lines {
				recent = append(recent, addr)
			} else {
				recent[rng.Intn(len(recent))] = addr
			}
		}
		if got := stats(); got != ref.stats {
			t.Fatalf("seed %d step %d: stats %+v, reference %+v", seed, step, got, ref.stats)
		}
	}
	// Final residency must agree for every address the stream used.
	for _, a := range pool {
		if got, want := dut.Probe(a), ref.probe(a); got != want {
			t.Fatalf("seed %d: final Probe(%#x) = %v, reference %v", seed, a, got, want)
		}
	}
}

// TestLRUMatchesPerSetReference diffs the flat Cache and TLB against the
// per-set reference over direct-mapped, 4-way, 16-way and fully
// associative geometries, three seeds each.
func TestLRUMatchesPerSetReference(t *testing.T) {
	geoms := []struct {
		name    string
		lines   int
		ways    int
		granule int
	}{
		{"direct", 64, 1, 128},
		{"4way", 128, 4, 64},
		{"16way", 256, 16, 128},
		{"fully", 64, 64, 4096},
		{"4way-3sets", 12, 4, 64}, // a set count that is not a power of two
	}
	for _, g := range geoms {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("cache/%s/seed%d", g.name, seed), func(t *testing.T) {
				c := MustCache(CacheConfig{Name: g.name, SizeBytes: g.lines * g.granule, LineBytes: g.granule, Ways: g.ways})
				ref := newRefSets(g.lines/g.ways, g.ways, g.granule)
				diffLRU(t, c, func() CacheStats { return c.Stats }, ref, g.lines, g.granule, seed)
			})
			t.Run(fmt.Sprintf("tlb/%s/seed%d", g.name, seed), func(t *testing.T) {
				tlb := MustTLB(TLBConfig{Name: g.name, Entries: g.lines, Ways: g.ways, PageBytes: g.granule})
				ref := newRefSets(g.lines/g.ways, g.ways, g.granule)
				diffLRU(t, tlb, func() CacheStats { return tlb.Stats }, ref, g.lines, g.granule, seed)
			})
		}
	}
}
