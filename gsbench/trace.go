package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Times are offsets from the tracer's
// epoch; parent is the index of the enclosing span, or -1 at an operation's
// root. Spans of one operation share op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths pay one nil check per boundary.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id, -1 when tracing is off.
func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose interval the caller measured itself.
func (t *tracer) add(name string, start, end time.Time, parent int, op int64) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.epoch)),
		End: int64(end.Sub(t.epoch)), Parent: parent, Op: op})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// snapshot returns the closed spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// layerOf names the layer a span belongs to: the text before its first dot.
func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// spanSummary aggregates recorded spans.
type spanSummary struct {
	// total is the summed duration of each span name.
	total map[string]time.Duration
	calls map[string]int
	// self is each layer's summed self time: span durations minus the part
	// of each interval that child spans cover.
	self map[string]time.Duration
	// rootBusy is the summed duration of root spans.
	rootBusy time.Duration
}

func summarize(spans []span) spanSummary {
	sum := spanSummary{
		total: map[string]time.Duration{},
		calls: map[string]int{},
		self:  map[string]time.Duration{},
	}
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i, s := range spans {
		d := time.Duration(s.End - s.Start)
		sum.total[s.Name] += d
		sum.calls[s.Name]++
		if s.Parent < 0 {
			sum.rootBusy += d
		}
		sum.self[layerOf(s.Name)] += d - covered(s, spans, children[i])
	}
	return sum
}

// covered returns how much of parent's interval the union of its children
// covers.
func covered(parent span, spans []span, kids []int) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := spans[k].Start, spans[k].End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total, curLo, curHi int64
	for i, v := range ivs {
		if i == 0 || v.lo > curHi {
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
			continue
		}
		if v.hi > curHi {
			curHi = v.hi
		}
	}
	total += curHi - curLo
	return time.Duration(total)
}

// perOpMS is a span name's summed duration per operation, in milliseconds.
func (s spanSummary) perOpMS(name string, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return float64(s.total[name]) / 1e6 / float64(ops)
}

// printLayers writes the per-layer self-time table of a traced run.
func (s spanSummary) printLayers(rep *report, wall time.Duration, workers int) {
	layers := make([]string, 0, len(s.self))
	for l := range s.self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(a, b int) bool { return s.self[layers[a]] > s.self[layers[b]] })
	capacity := float64(wall) * float64(workers)
	rep.printf("trace: per-layer self time over %.3f s traced wall x %d workers", wall.Seconds(), workers)
	for _, l := range layers {
		rep.printf("trace:   %-12s self %10.3f ms  %5.1f%% of worker time", l,
			float64(s.self[l])/1e6, 100*ratio(float64(s.self[l]), capacity))
	}
	names := make([]string, 0, len(s.calls))
	for n := range s.calls {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		rep.printf("trace:   span %-22s calls %8d  total %10.3f ms", n, s.calls[n], float64(s.total[n])/1e6)
	}
}
