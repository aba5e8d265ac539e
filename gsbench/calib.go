package main

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on a share of a larger machine whose speed drifts: on
// the 2-vCPU development host the same simulations ran up to 1.7x slower a
// few minutes apart, in CPU time as much as in wall time, with little
// hypervisor steal. Medians within a run do not remove that; two sets of
// runs taken minutes apart differ by it. So every timed run also times a
// fixed reference workload, owned by the benchmark, in short blocks between
// its measured units, and scales its end-to-end times to the speed of a
// reference host: a time is multiplied by refRoundSeconds over the run's
// median reference round, a rate divided by it. A change to the program
// moves the measured work and not the reference, so it shows in full.

// refRoundSeconds is the median reference round on the reference host
// (2 vCPUs, Intel Xeon, both running rounds at once), the speed every
// scaled metric is reported at.
const refRoundSeconds = 0.025

// calibShare is the share of the measured time spent on reference rounds.
const calibShare = 0.08

// calibWarmRounds is the block every timed run starts with, before its
// set-up probes.
const calibWarmRounds = 10

// calibMinBlock is the shortest calibration block: shorter ones would
// spend more on mapping the reference memory than on measuring.
const calibMinBlock = 100 * time.Millisecond

// The reference round mixes kinds of work the workloads do: dependent
// loads over a working set larger than a core's private caches, hash-table
// probes, integer arithmetic with data-dependent branches, a sort, and
// first touches of fresh memory (the workloads' heaps grow and are
// returned to the kernel all the time).
const (
	chaseWords = 1 << 20 // 4 MiB of dependent loads
	chaseSteps = 120_000
	tableBits  = 19 // 4 MiB open-addressing table of uint64 keys
	tableOps   = 160_000
	aluSteps   = 1_200_000
	sortWords  = 1 << 15
	freshBytes = 1 << 20 // mapped, touched page by page and unmapped
)

// calibrator times reference rounds on every worker at once, between the
// measured units of a run. A nil calibrator (traced runs, set-up probes)
// does nothing.
type calibrator struct {
	workers int
	debt    time.Duration
	samples []float64 // seconds per reference round, one per worker and round
	err     error
}

// refSink keeps the reference rounds' results live.
var refSink atomic.Uint64

func newCalibrator(workers int) *calibrator { return &calibrator{workers: workers} }

// owe runs reference rounds worth calibShare of d, the measured time just
// spent, once that adds up to a block. Callers read anything a block would
// disturb (the peak resident set) before calling it.
func (c *calibrator) owe(d time.Duration) {
	if c == nil {
		return
	}
	c.debt += time.Duration(float64(d) * calibShare)
	if c.debt < calibMinBlock {
		return
	}
	start := time.Now()
	c.block(int(c.debt.Seconds()/refRoundSeconds) + 1)
	c.debt -= time.Since(start)
}

// block runs rounds reference rounds on each of the workers at once. The
// reference memory is mapped for the block alone and unmapped after it,
// and the kernel's peak-RSS mark is restarted, so the block leaves the
// process's heap and peak resident set as it found them.
func (c *calibrator) block(rounds int) {
	if c == nil {
		return
	}
	per := make([][]float64, c.workers)
	errs := make([]error, c.workers)
	var wg sync.WaitGroup
	for w := range per {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			per[w], errs[w] = refRounds(rounds)
		}(w)
	}
	wg.Wait()
	for w := range per {
		c.samples = append(c.samples, per[w]...)
		if errs[w] != nil && c.err == nil {
			c.err = errs[w]
		}
	}
	clearPeakRSS()
}

// speed is the host's speed relative to the reference host: above 1 when
// reference rounds run faster than there.
func (c *calibrator) speed() (float64, error) {
	if c.err != nil {
		return 0, fmt.Errorf("reference rounds: %w", c.err)
	}
	if len(c.samples) == 0 {
		return 0, fmt.Errorf("no reference rounds were timed")
	}
	return refRoundSeconds / median(c.samples), nil
}

// refRounds maps the reference memory and times rounds reference rounds.
func refRounds(rounds int) ([]float64, error) {
	const size = chaseWords*4 + (1<<tableBits)*8 + sortWords*4
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, err
	}
	defer syscall.Munmap(mem)
	chase := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), chaseWords)
	table := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[chaseWords*4])), 1<<tableBits)
	sorted := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[chaseWords*4+(1<<tableBits)*8])), sortWords)
	// i -> (a·i + c) mod 2^20 with c odd and a ≡ 1 mod 4 is one cycle
	// through every word, in an order no prefetcher follows.
	for i := range chase {
		chase[i] = (uint32(i)*2654435761 + 12345) & (chaseWords - 1)
	}
	out := make([]float64, rounds)
	var sum uint64
	for r := range out {
		t := time.Now()
		sum += refRound(chase, table, sorted, uint64(r))
		n, err := touchFresh()
		if err != nil {
			return nil, err
		}
		sum += n
		out[r] = time.Since(t).Seconds()
	}
	refSink.Add(sum)
	return out, nil
}

// touchFresh maps freshBytes of new memory, writes one word per page so the
// kernel faults every page in, and unmaps it.
func touchFresh() (uint64, error) {
	mem, err := syscall.Mmap(-1, 0, freshBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return 0, err
	}
	var sum uint64
	for i := 0; i < len(mem); i += 4096 {
		mem[i] = byte(i >> 12)
		sum += uint64(mem[i])
	}
	return sum, syscall.Munmap(mem)
}

// refRound is one reference round. Its result depends on all of its work,
// so none of it can be optimized away.
func refRound(chase []uint32, table []uint64, sorted []uint32, seed uint64) uint64 {
	j := uint32(seed)
	for i := 0; i < chaseSteps; i++ {
		j = chase[j]
	}

	clear(table)
	x := seed*0x9E3779B97F4A7C15 + uint64(j)
	hits := uint64(0)
	for i := 0; i < tableOps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		k := x>>40 | 1
		h := (k * 0x9E3779B97F4A7C15) >> (64 - tableBits)
		for table[h] != 0 && table[h] != k {
			h = (h + 1) & (1<<tableBits - 1)
		}
		switch {
		case table[h] == k:
			hits++
		case i < tableOps/2:
			table[h] = k
		}
	}

	y := x | 1
	for i := 0; i < aluSteps; i++ {
		y ^= y << 13
		y ^= y >> 7
		y ^= y << 17
		if y&3 == 0 {
			y += uint64(i)
		}
	}

	copy(sorted, chase[j&(chaseWords/2):])
	slices.Sort(sorted)
	return uint64(j) + hits + y + uint64(sorted[sortWords/2])
}
