package kernelfuzz

import "fmt"

// This file keeps the map-based ground-truth evaluator that EvalTruth
// replaced, as the reference eval_test.go holds EvalTruth to: a new
// environment and variable map per thread, site truth in a map keyed by
// site ID, and a BufSpec copied on every access. It must return the same
// truth map and the same error text as EvalTruth on every case.

// refEnv carries one thread's evaluation state.
type refEnv struct {
	tid, ctaid, gtid int64
	launch           *LaunchSpec
	bufs             []BufSpec
	vars             map[int]tval
	loops            []int64
	truth            map[int]*SiteTruth
}

// evalTruthRef runs every launch of the case over every thread with exact Go
// int64 (wrapping) semantics and returns per-site ground truth keyed by
// site ID. Malformed cases have no truth.
func evalTruthRef(c *Case) (map[int]*SiteTruth, error) {
	truth := make(map[int]*SiteTruth, len(c.Sites))
	for _, s := range c.Sites {
		truth[s.ID] = &SiteTruth{}
	}
	if c.Malformed != nil {
		return truth, nil
	}
	for li := range c.Launches {
		l := &c.Launches[li]
		total := l.Grid * l.Block
		for t := 0; t < total; t++ {
			env := &refEnv{
				tid: int64(t % l.Block), ctaid: int64(t / l.Block), gtid: int64(t),
				launch: l, bufs: c.Bufs,
				vars: make(map[int]tval), truth: truth,
			}
			budget := evalBudget
			if err := refStmts(env, l.Body, &budget); err != nil {
				return truth, fmt.Errorf("launch %d thread %d: %w", li, t, err)
			}
		}
	}
	return truth, nil
}

func refStmts(env *refEnv, body []*Stmt, budget *int) error {
	for _, s := range body {
		if err := refStmt(env, s, budget); err != nil {
			return err
		}
	}
	return nil
}

func refStmt(env *refEnv, s *Stmt, budget *int) error {
	switch s.Kind {
	case SLoad, SStore:
		return refAccess(env, s)
	case SLoop:
		for i := s.Start; i < s.Bound; i += s.Step {
			*budget--
			if *budget <= 0 {
				return fmt.Errorf("loop budget exhausted (bound %d step %d)", s.Bound, s.Step)
			}
			env.loops = append(env.loops, i)
			err := refStmts(env, s.Body, budget)
			env.loops = env.loops[:len(env.loops)-1]
			if err != nil {
				return err
			}
		}
		return nil
	case SIf:
		cond, err := refExpr(env, s.Cond)
		if err != nil {
			return err
		}
		if cond.taint {
			return fmt.Errorf("tainted branch condition")
		}
		if cond.v != 0 {
			return refStmts(env, s.Body, budget)
		}
		return nil
	}
	return fmt.Errorf("eval of stmt kind %d", s.Kind)
}

func refAccess(env *refEnv, s *Stmt) error {
	st := env.truth[s.Site.ID]
	elem, err := refExpr(env, s.Elem)
	if err != nil {
		return err
	}
	if elem.taint && !s.Site.Opaque {
		return fmt.Errorf("tainted address at site %d (pc %d)", s.Site.ID, s.Site.PC)
	}

	if s.Kind == SStore && s.Val != nil {
		if _, err := refExpr(env, s.Val); err != nil {
			return err
		}
	}

	if s.Base != nil {
		// Register-base deref (the UAF shape): the base is a runtime tagged
		// pointer, so truth can only record that the site executed; the
		// oracle requires detection rather than computing a footprint.
		if _, err := refExpr(env, s.Base); err != nil {
			return err
		}
		st.Executed = true
		if s.Kind == SLoad {
			env.vars[s.Var] = tval{taint: true}
		}
		return nil
	}

	spec := env.bufs[env.launch.Args[s.Buf].Buf]
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
	if off < 0 || end > int64(spec.Size()) {
		st.AnyOOB = true
	}
	if off < 0 || end > int64(spec.Padded()) {
		st.AnyPadOOB = true
	}

	if s.Kind == SLoad {
		env.vars[s.Var] = refLoadValue(spec, off, s.Bytes)
	}
	return nil
}

// refLoadValue models what the device returns for an in-bounds load. Only
// 8-byte-aligned 8-byte loads from read-only buffers are predictable (they
// return the host Init verbatim and can never have been overwritten or
// squashed); everything else is tainted.
func refLoadValue(spec BufSpec, off int64, bytes int) tval {
	if !spec.ReadOnly || bytes != 8 || off < 0 || off%8 != 0 || off+8 > int64(spec.Size()) {
		return tval{taint: true}
	}
	idx := off / 8
	if idx < int64(len(spec.Init)) {
		return tval{v: spec.Init[idx]}
	}
	return tval{} // zero-initialized tail
}

func refExpr(env *refEnv, e *Expr) (tval, error) {
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
		v, ok := env.vars[e.Var]
		if !ok {
			return tval{}, fmt.Errorf("read of unset var %d", e.Var)
		}
		return v, nil
	}

	x, err := refExpr(env, e.X)
	if err != nil {
		return tval{}, err
	}
	y, err := refExpr(env, e.Y)
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
