package kernelfuzz

import (
	"math"
	"sync"
)

// The vectorized ground-truth evaluator. It walks each launch's AST once,
// carrying the values of all active threads through every expression (one
// value when they all hold the same), instead of walking it once per
// thread. Site truth is a fold of (thread, access)
// events with min, max and OR, so evaluating statement by statement across
// threads gathers what thread-by-thread evaluation gathers, event order
// aside. The exception is a site reached both through a register base
// (which sets only Executed) and through a buffer (whose first event sets
// MinOff/MaxOff while Executed is false); such a site gives up.
//
// Every method reports false to give up: wherever a thread of the
// per-thread evaluator would fail (an unset variable, a tainted address or
// branch, an exhausted loop budget, a loop variable outside its loops, an
// unknown statement or expression kind) or panic (a nil node, an index out
// of range), and for a variable ID outside the launch's NumVars, which it
// keeps no slots for. It checks every active thread, so it never returns
// truth for a case on which the per-thread evaluator fails.

// Site access forms, for vecEnv.forms.
const (
	formBuf  = 1 << iota // param buffer plus scaled index
	formBase             // register base (the UAF deref)
)

// vecEnv is the state of one case's vectorized evaluation; vecEnvs keeps
// them, buffers and all, between cases.
type vecEnv struct {
	launch       *LaunchSpec
	total        int
	sites        []SiteTruth // by site ID
	forms        []uint8     // by site ID: the access forms it executed
	bufs         []bufInfo   // by Case.Bufs index
	tids, ctaids []int64     // by thread
	budget       []int       // loop iterations left, by thread
	vars         [][]varSlot // by variable ID, then thread
	vals         [][]tval    // by expression depth, then active thread
	acts         [][]int32   // active threads, by If depth
	loops        []int64
}

var vecEnvs = sync.Pool{New: func() any { return new(vecEnv) }}

// eval evaluates every launch of c into sites, which must be zero.
func (v *vecEnv) eval(c *Case, sites []SiteTruth, bufs []bufInfo) bool {
	v.sites, v.bufs = sites, bufs
	v.forms = grow(v.forms, len(sites))
	clear(v.forms)
	ok := true
	for li := range c.Launches {
		if ok = v.evalLaunch(&c.Launches[li]); !ok {
			break
		}
	}
	v.launch, v.sites, v.bufs, v.loops = nil, nil, nil, v.loops[:0]
	return ok
}

// evalLaunch runs one launch across all of its threads. Variables, their
// set bits and loop budgets start over in every launch, as they do for
// every thread of the per-thread evaluator.
func (v *vecEnv) evalLaunch(l *LaunchSpec) bool {
	total := l.Grid * l.Block
	if total <= 0 {
		return true // no thread runs
	}
	v.launch, v.total = l, total
	v.tids, v.ctaids, v.budget = grow(v.tids, total), grow(v.ctaids, total), grow(v.budget, total)
	for t := range total {
		v.tids[t], v.ctaids[t] = int64(t%l.Block), int64(t/l.Block)
		v.budget[t] = evalBudget
	}
	v.vars = grow(v.vars, max(l.NumVars, 0))
	for i := range v.vars {
		v.vars[i] = grow(v.vars[i], total)
		clear(v.vars[i])
	}
	all := v.actList(0)
	for t := range total {
		all = append(all, int32(t))
	}
	return v.stmts(l.Body, all, 0)
}

// grow returns s resized to n elements, reallocating only to grow.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// actList returns the empty active-thread list of If depth d.
func (v *vecEnv) actList(d int) []int32 {
	for len(v.acts) <= d {
		v.acts = append(v.acts, nil)
	}
	if cap(v.acts[d]) < v.total {
		v.acts[d] = make([]int32, 0, v.total)
	}
	return v.acts[d][:0]
}

// valBuf returns the value vector of expression depth d for n active
// threads.
func (v *vecEnv) valBuf(d, n int) []tval {
	for len(v.vals) <= d {
		v.vals = append(v.vals, nil)
	}
	if cap(v.vals[d]) < n {
		v.vals[d] = make([]tval, v.total)
	}
	return v.vals[d][:n]
}

// stmts runs body for the active threads act at If depth d.
func (v *vecEnv) stmts(body []*Stmt, act []int32, d int) bool {
	for _, s := range body {
		if s == nil || !v.stmt(s, act, d) {
			return false
		}
	}
	return true
}

func (v *vecEnv) stmt(s *Stmt, act []int32, d int) bool {
	switch s.Kind {
	case SLoad, SStore:
		return v.access(s, act)
	case SLoop:
		// Every active thread runs every trip, so each is charged the trip
		// count up front. Its budget runs out here exactly when it would run
		// out at some trip of the per-thread evaluator.
		trips := 0
		for i := s.Start; i < s.Bound; i += s.Step {
			if trips++; trips >= evalBudget {
				return false
			}
		}
		for _, t := range act {
			if v.budget[t] -= trips; v.budget[t] <= 0 {
				return false
			}
		}
		for i := s.Start; i < s.Bound; i += s.Step {
			v.loops = append(v.loops, i)
			ok := v.stmts(s.Body, act, d)
			v.loops = v.loops[:len(v.loops)-1]
			if !ok {
				return false
			}
		}
		return true
	case SIf:
		cond, ok := v.expr(s.Cond, 0, act)
		if !ok || cond.tainted() {
			return false
		}
		taken := act
		if cond.uni {
			if cond.u.v == 0 {
				taken = nil
			}
		} else {
			taken = v.actList(d + 1)
			for i, t := range act {
				if cond.xs[i].v != 0 {
					taken = append(taken, t)
				}
			}
		}
		if len(taken) == 0 {
			return true
		}
		return v.stmts(s.Body, taken, d+1)
	}
	return false
}

// access runs one load or store for the active threads act and folds their
// footprint into its site's truth. A thread's access is out of bounds when
// its offset is negative or its end is past the region, so the fold needs
// only the least offset and the greatest end.
func (v *vecEnv) access(s *Stmt, act []int32) bool {
	if s.Site == nil || uint(s.Site.ID) >= uint(len(v.sites)) {
		return false
	}
	elem, ok := v.expr(s.Elem, 0, act)
	if !ok || !s.Site.Opaque && elem.tainted() {
		return false
	}
	if s.Kind == SStore && s.Val != nil {
		if _, ok := v.expr(s.Val, 1, act); !ok {
			return false
		}
	}
	var slots []varSlot
	if s.Kind == SLoad {
		if uint(s.Var) >= uint(len(v.vars)) {
			return false
		}
		slots = v.vars[s.Var]
	}
	st := &v.sites[s.Site.ID]

	if s.Base != nil {
		if _, ok := v.expr(s.Base, 1, act); !ok || !v.addForm(s.Site.ID, formBase) {
			return false
		}
		st.Executed = true
		if slots != nil {
			for _, t := range act {
				slots[t] = varSlot{val: tval{taint: true}, set: true}
			}
		}
		return true
	}

	args := v.launch.Args
	if uint(s.Buf) >= uint(len(args)) || uint(args[s.Buf].Buf) >= uint(len(v.bufs)) || !v.addForm(s.Site.ID, formBuf) {
		return false
	}
	b := &v.bufs[args[s.Buf].Buf]
	width := int64(s.Bytes)
	var lo, hi int64
	if elem.uni {
		lo = elem.u.v * s.Scale
		hi = lo + width
		if slots != nil {
			x := varSlot{val: b.load(lo, s.Bytes), set: true}
			for _, t := range act {
				slots[t] = x
			}
		}
	} else {
		lo, hi = math.MaxInt64, math.MinInt64
		for i, x := range elem.xs {
			off := x.v * s.Scale
			lo, hi = min(lo, off), max(hi, off+width)
			if slots != nil {
				slots[act[i]] = varSlot{val: b.load(off, s.Bytes), set: true}
			}
		}
	}
	if !st.Executed {
		st.MinOff, st.MaxOff = lo, hi
	} else {
		st.MinOff, st.MaxOff = min(st.MinOff, lo), max(st.MaxOff, hi)
	}
	st.Executed = true
	st.AnyNeg = st.AnyNeg || lo < 0
	st.AnyOOB = st.AnyOOB || lo < 0 || hi > b.size
	st.AnyPadOOB = st.AnyPadOOB || lo < 0 || hi > b.padded
	return true
}

// addForm records that site id executed an access of form f and reports
// whether it has executed only one form.
func (v *vecEnv) addForm(id int, f uint8) bool {
	v.forms[id] |= f
	return v.forms[id] != formBuf|formBase
}

// vec is an expression's value across the active threads: uniform (every
// thread holds u) or one value per active thread in xs.
type vec struct {
	uni bool
	u   tval
	xs  []tval
}

func (x vec) tainted() bool {
	if x.uni {
		return x.u.taint
	}
	for i := range x.xs {
		if x.xs[i].taint {
			return true
		}
	}
	return false
}

// expr evaluates e for the active threads act. A value that is not uniform
// goes into the buffer of expression depth d, and a binary node evaluates
// its right operand at depth d+1.
func (v *vecEnv) expr(e *Expr, d int, act []int32) (vec, bool) {
	if e == nil {
		return vec{}, false
	}
	switch e.Kind {
	case ExConst:
		return vec{uni: true, u: tval{v: e.Val}}, true
	case ExTID, ExCTAID, ExGTID:
		out := v.valBuf(d, len(act))
		switch e.Kind {
		case ExTID:
			for i, t := range act {
				out[i] = tval{v: v.tids[t]}
			}
		case ExCTAID:
			for i, t := range act {
				out[i] = tval{v: v.ctaids[t]}
			}
		default:
			for i, t := range act {
				out[i] = tval{v: int64(t)}
			}
		}
		return vec{xs: out}, true
	case ExLoopVar:
		if e.Loop < 0 || e.Loop >= len(v.loops) {
			return vec{}, false
		}
		return vec{uni: true, u: tval{v: v.loops[len(v.loops)-1-e.Loop]}}, true
	case ExScalar:
		if uint(e.Arg) >= uint(len(v.launch.Args)) {
			return vec{}, false
		}
		return vec{uni: true, u: tval{v: v.launch.Args[e.Arg].Scalar}}, true
	case ExParam:
		return vec{uni: true, u: tval{taint: true}}, true
	case ExVar:
		if uint(e.Var) >= uint(len(v.vars)) {
			return vec{}, false
		}
		slots := v.vars[e.Var]
		out := v.valBuf(d, len(act))
		for i, t := range act {
			if !slots[t].set {
				return vec{}, false
			}
			out[i] = slots[t].val
		}
		return vec{xs: out}, true
	case ExAdd, ExSub, ExMul, ExAnd, ExLT, ExGE, ExEQ:
		x, ok := v.expr(e.X, d, act)
		if !ok {
			return vec{}, false
		}
		y, ok := v.expr(e.Y, d+1, act)
		if !ok {
			return vec{}, false
		}
		if x.uni && y.uni {
			xs, ys := [1]tval{x.u}, [1]tval{y.u}
			combine(e.Kind, xs[:], ys[:])
			return vec{uni: true, u: xs[0]}, true
		}
		if x.uni {
			x.xs = v.valBuf(d, len(act))
			fill(x.xs, x.u)
		}
		if y.uni {
			y.xs = v.valBuf(d+1, len(act))
			fill(y.xs, y.u)
		}
		combine(e.Kind, x.xs, y.xs)
		return vec{xs: x.xs}, true
	}
	return vec{}, false
}

// combine sets x[i] = x[i] op y[i], tainted if either operand is.
func combine(k ExprKind, x, y []tval) {
	y = y[:len(x)]
	switch k {
	case ExAdd:
		for i := range x {
			x[i] = tval{v: x[i].v + y[i].v, taint: x[i].taint || y[i].taint}
		}
	case ExSub:
		for i := range x {
			x[i] = tval{v: x[i].v - y[i].v, taint: x[i].taint || y[i].taint}
		}
	case ExMul:
		for i := range x {
			x[i] = tval{v: x[i].v * y[i].v, taint: x[i].taint || y[i].taint}
		}
	case ExAnd:
		for i := range x {
			x[i] = tval{v: x[i].v & y[i].v, taint: x[i].taint || y[i].taint}
		}
	case ExLT:
		for i := range x {
			x[i] = tval{v: b2i(x[i].v < y[i].v), taint: x[i].taint || y[i].taint}
		}
	case ExGE:
		for i := range x {
			x[i] = tval{v: b2i(x[i].v >= y[i].v), taint: x[i].taint || y[i].taint}
		}
	case ExEQ:
		for i := range x {
			x[i] = tval{v: b2i(x[i].v == y[i].v), taint: x[i].taint || y[i].taint}
		}
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func fill(out []tval, x tval) {
	for i := range out {
		out[i] = x
	}
}
