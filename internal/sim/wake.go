package sim

// farFuture is the wake time of a core that provably cannot issue until
// some future event (placement, barrier release) re-arms it.
const farFuture = ^uint64(0)

// wakeTimes holds per-core wake times: the earliest cycle at which each
// core might issue an instruction.
//
// Updates happen on every issue (the hottest path in the simulator), while
// the minimum is only consulted when the whole GPU went idle for a step, so
// set/earlier are single writes and min is one pass over the array. That
// keeps the next-event query at O(cores), independent of the (much larger)
// resident-warp population the scan-based scheduler used to walk.
type wakeTimes struct {
	wake []uint64 // wake[core] = earliest possible issue cycle
}

func newWakeTimes(cores int) *wakeTimes {
	w := &wakeTimes{wake: make([]uint64, cores)}
	w.reset()
	return w
}

// reset parks every core at farFuture. Called at the start of each
// RunConcurrent and by GPU.Reset.
func (w *wakeTimes) reset() {
	for i := range w.wake {
		w.wake[i] = farFuture
	}
}

// at returns core's current wake time.
func (w *wakeTimes) at(core int) uint64 { return w.wake[core] }

// due appends to dst every core whose wake time has arrived at cycle now,
// in ascending core-id order — which is both the serial scheduler's visit
// order and the parallel scheduler's commit order. In an abort-free cycle
// no event can wake a core mid-step, so the set computed up front equals
// the set the serial loop would visit; abort cycles never reach here (the
// hazard fallback re-runs them serially).
func (w *wakeTimes) due(now uint64, dst []*coreState, cores []*coreState) []*coreState {
	for _, c := range cores {
		if w.wake[c.id] <= now {
			dst = append(dst, c)
		}
	}
	return dst
}

// set moves core's wake time to t.
func (w *wakeTimes) set(core int, t uint64) { w.wake[core] = t }

// earlier lowers core's wake time to t if t is sooner than its current one.
func (w *wakeTimes) earlier(core int, t uint64) {
	if t < w.wake[core] {
		w.wake[core] = t
	}
}

// min returns the earliest wake time of the cores below n (farFuture when
// every one of them is parked).
func (w *wakeTimes) min(n int) uint64 {
	m := farFuture
	for _, t := range w.wake[:n] {
		m = min(m, t)
	}
	return m
}
