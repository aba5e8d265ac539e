package kernelfuzz

import "fmt"

// SiteTruth is the ground-truth footprint of one access site, accumulated
// over every thread of its launch. The simulator checks warp-coalesced
// min/max ranges, and a range check fails exactly when some lane is out of
// bounds, so per-lane existential truth is the right granularity.
type SiteTruth struct {
	Executed bool
	// AnyOOB: some executing thread's [off, off+bytes) leaves the exact
	// region [0, size) — the Type-2 verdict (RBT entries for ClassID
	// params carry the exact size).
	AnyOOB bool
	// AnyNeg: some executing thread's offset is negative — Type-3 MinOfs<0.
	AnyNeg bool
	// AnyPadOOB: some executing thread's last byte reaches past the padded
	// (power-of-two) region — the Type-3 verdict, blind to the padding gap.
	AnyPadOOB bool
	// MinOff/MaxOff span the executed footprint (bytes, inclusive of the
	// access width) for diagnostics.
	MinOff, MaxOff int64
}

// tval is a per-thread evaluated value with a taint bit. Tainted values are
// ones the generator cannot predict (raw tagged-pointer words, loads from
// writable memory); the generator's invariant is that taint never reaches
// an address or branch condition of a non-opaque site — if it does, ground
// truth would be wrong, so the evaluator reports it as a hard error.
type tval struct {
	v     int64
	taint bool
}

// threadEnv carries the evaluation state of one case. The per-thread
// evaluator uses one for every thread of every launch: the thread IDs and
// the variables' set bits are reset before each thread, and every loop
// pops what it pushed.
type threadEnv struct {
	tid, ctaid, gtid int64
	launch           *LaunchSpec
	bufs             []bufInfo // by Case.Bufs index
	vars             []varSlot // by variable ID
	loops            []int64
	sites            []SiteTruth // by site ID
}

// varSlot is one variable of one thread; set is false until an SLoad
// writes it.
type varSlot struct {
	val tval
	set bool
}

// bufInfo is what an access needs of a case buffer, computed once per case.
type bufInfo struct {
	size, padded int64
	readOnly     bool
	init         []int64
}

// evalBudget bounds total loop iterations per thread so a buggy generator
// cannot hang the oracle.
const evalBudget = 1 << 16

// EvalTruth runs every launch of the case over every thread with exact Go
// int64 (wrapping) semantics and returns per-site ground truth keyed by
// site ID. Malformed cases have no truth.
//
// Each launch is evaluated once across all of its threads (vecEnv). Where
// the per-thread evaluator below would fail, or a case is outside what the
// vectorized one handles, the vectorized evaluator gives up, and the
// per-thread evaluator runs the case again from a cleared site table, so an
// error and the truth gathered before it are the per-thread evaluator's.
func EvalTruth(c *Case) (map[int]*SiteTruth, error) {
	truth, _, err := evalTruth(c)
	return truth, err
}

// evalTruth is EvalTruth; perThread reports whether the vectorized
// evaluator gave up and the per-thread evaluator answered.
func evalTruth(c *Case) (truth map[int]*SiteTruth, perThread bool, err error) {
	env := newThreadEnv(c)
	truth = make(map[int]*SiteTruth, len(c.Sites))
	for _, s := range c.Sites {
		truth[s.ID] = &env.sites[s.ID]
	}
	if c.Malformed != nil {
		return truth, false, nil
	}
	v := vecEnvs.Get().(*vecEnv)
	ok := v.eval(c, env.sites, env.bufs)
	vecEnvs.Put(v)
	if ok {
		return truth, false, nil
	}
	clear(env.sites)
	return truth, true, evalThreads(c, &env)
}

// newThreadEnv returns the state c's evaluation starts from: a zero site
// table and what accesses need of its buffers.
func newThreadEnv(c *Case) threadEnv {
	// Shrunk cases keep their original site IDs, so the table is sized by
	// the largest one rather than by the number of sites.
	maxID := -1
	for _, s := range c.Sites {
		maxID = max(maxID, s.ID)
	}
	env := threadEnv{sites: make([]SiteTruth, maxID+1), bufs: make([]bufInfo, len(c.Bufs))}
	for i, b := range c.Bufs {
		env.bufs[i] = bufInfo{size: int64(b.Size()), padded: int64(b.Padded()), readOnly: b.ReadOnly, init: b.Init}
	}
	return env
}

// evalThreads is the per-thread evaluator: it runs each thread of each
// launch through the AST on its own.
func evalThreads(c *Case, env *threadEnv) error {
	for li := range c.Launches {
		l := &c.Launches[li]
		env.launch = l
		total := l.Grid * l.Block
		for t := 0; t < total; t++ {
			env.tid, env.ctaid, env.gtid = int64(t%l.Block), int64(t/l.Block), int64(t)
			clear(env.vars)
			budget := evalBudget
			if err := evalStmts(env, l.Body, &budget); err != nil {
				return fmt.Errorf("launch %d thread %d: %w", li, t, err)
			}
		}
	}
	return nil
}

// setVar writes variable v of the current thread.
func (env *threadEnv) setVar(v int, x tval) {
	if v >= len(env.vars) {
		env.vars = append(env.vars, make([]varSlot, v+1-len(env.vars))...)
	}
	env.vars[v] = varSlot{val: x, set: true}
}

func evalStmts(env *threadEnv, body []*Stmt, budget *int) error {
	for _, s := range body {
		if err := evalStmt(env, s, budget); err != nil {
			return err
		}
	}
	return nil
}

func evalStmt(env *threadEnv, s *Stmt, budget *int) error {
	switch s.Kind {
	case SLoad, SStore:
		return evalAccess(env, s)
	case SLoop:
		for i := s.Start; i < s.Bound; i += s.Step {
			*budget--
			if *budget <= 0 {
				return fmt.Errorf("loop budget exhausted (bound %d step %d)", s.Bound, s.Step)
			}
			env.loops = append(env.loops, i)
			err := evalStmts(env, s.Body, budget)
			env.loops = env.loops[:len(env.loops)-1]
			if err != nil {
				return err
			}
		}
		return nil
	case SIf:
		cond, err := evalExpr(env, s.Cond)
		if err != nil {
			return err
		}
		if cond.taint {
			return fmt.Errorf("tainted branch condition")
		}
		if cond.v != 0 {
			return evalStmts(env, s.Body, budget)
		}
		return nil
	}
	return fmt.Errorf("eval of stmt kind %d", s.Kind)
}

func evalAccess(env *threadEnv, s *Stmt) error {
	st := &env.sites[s.Site.ID]
	elem, err := evalExpr(env, s.Elem)
	if err != nil {
		return err
	}
	if elem.taint && !s.Site.Opaque {
		return fmt.Errorf("tainted address at site %d (pc %d)", s.Site.ID, s.Site.PC)
	}

	if s.Kind == SStore && s.Val != nil {
		if _, err := evalExpr(env, s.Val); err != nil {
			return err
		}
	}

	if s.Base != nil {
		// Register-base deref (the UAF shape): the base is a runtime tagged
		// pointer, so truth can only record that the site executed; the
		// oracle requires detection rather than computing a footprint.
		if _, err := evalExpr(env, s.Base); err != nil {
			return err
		}
		st.Executed = true
		if s.Kind == SLoad {
			env.setVar(s.Var, tval{taint: true})
		}
		return nil
	}

	b := &env.bufs[env.launch.Args[s.Buf].Buf]
	off := elem.v * s.Scale
	end := off + int64(s.Bytes) // first byte past the access
	if !st.Executed {
		st.MinOff, st.MaxOff = off, end
	} else {
		if off < st.MinOff {
			st.MinOff = off
		}
		if end > st.MaxOff {
			st.MaxOff = end
		}
	}
	st.Executed = true
	if off < 0 {
		st.AnyNeg = true
	}
	if off < 0 || end > b.size {
		st.AnyOOB = true
	}
	if off < 0 || end > b.padded {
		st.AnyPadOOB = true
	}

	if s.Kind == SLoad {
		env.setVar(s.Var, b.load(off, s.Bytes))
	}
	return nil
}

// load models what the device returns for an in-bounds load. Only
// 8-byte-aligned 8-byte loads from read-only buffers are predictable (they
// return the host Init verbatim and can never have been overwritten or
// squashed); everything else is tainted.
func (b *bufInfo) load(off int64, bytes int) tval {
	if !b.readOnly || bytes != 8 || off < 0 || off%8 != 0 || off+8 > b.size {
		return tval{taint: true}
	}
	idx := off / 8
	if idx < int64(len(b.init)) {
		return tval{v: b.init[idx]}
	}
	return tval{} // zero-initialized tail
}

func evalExpr(env *threadEnv, e *Expr) (tval, error) {
	switch e.Kind {
	case ExConst:
		return tval{v: e.Val}, nil
	case ExTID:
		return tval{v: env.tid}, nil
	case ExCTAID:
		return tval{v: env.ctaid}, nil
	case ExGTID:
		return tval{v: env.gtid}, nil
	case ExLoopVar:
		if e.Loop >= len(env.loops) {
			return tval{}, fmt.Errorf("loop var depth %d outside %d loops", e.Loop, len(env.loops))
		}
		return tval{v: env.loops[len(env.loops)-1-e.Loop]}, nil
	case ExScalar:
		return tval{v: env.launch.Args[e.Arg].Scalar}, nil
	case ExParam:
		// Raw argument word: for buffers this is the runtime tagged
		// pointer, unknowable to the generator.
		return tval{taint: true}, nil
	case ExVar:
		if e.Var < 0 || e.Var >= len(env.vars) || !env.vars[e.Var].set {
			return tval{}, fmt.Errorf("read of unset var %d", e.Var)
		}
		return env.vars[e.Var].val, nil
	}

	x, err := evalExpr(env, e.X)
	if err != nil {
		return tval{}, err
	}
	y, err := evalExpr(env, e.Y)
	if err != nil {
		return tval{}, err
	}
	r := tval{taint: x.taint || y.taint}
	switch e.Kind {
	case ExAdd:
		r.v = x.v + y.v
	case ExSub:
		r.v = x.v - y.v
	case ExMul:
		r.v = x.v * y.v
	case ExAnd:
		r.v = x.v & y.v
	case ExLT:
		if x.v < y.v {
			r.v = 1
		}
	case ExGE:
		if x.v >= y.v {
			r.v = 1
		}
	case ExEQ:
		if x.v == y.v {
			r.v = 1
		}
	default:
		return tval{}, fmt.Errorf("eval of expr kind %d", e.Kind)
	}
	return r, nil
}
