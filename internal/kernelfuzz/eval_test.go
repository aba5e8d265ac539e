package kernelfuzz

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"gpushield/internal/kernel"
)

// checkTruth requires EvalTruth to return what the map-based reference
// (eval_ref_test.go) returns on c: a reflect.DeepEqual truth map, partial
// ones after an error included, and the same error text. The per-thread
// fallback must have answered exactly when there is an error: every case
// that has truth takes the vectorized path.
func checkTruth(t *testing.T, label string, c *Case) error {
	t.Helper()
	got, perThread, gotErr := evalTruth(c)
	want, wantErr := evalTruthRef(c)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: EvalTruth error %v, reference %v", label, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: EvalTruth truth differs from the reference:\n%s\n--- vs ---\n%s", label, truthDump(got), truthDump(want))
	}
	if perThread != (gotErr != nil) {
		t.Fatalf("%s: answered by the per-thread evaluator = %v, error %v", label, perThread, gotErr)
	}
	return gotErr
}

func truthDump(m map[int]*SiteTruth) string {
	var b strings.Builder
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		fmt.Fprintf(&b, "site %d: %+v\n", id, *m[id])
	}
	return b.String()
}

// TestEvalTruthMatchesReferenceGenerated compares the two evaluators on
// 1,200 generated cases, every plant class included.
func TestEvalTruthMatchesReferenceGenerated(t *testing.T) {
	for _, seed := range []int64{1, 7, 12345} {
		for i := 0; i < 400; i++ {
			c := Generate(seed, i)
			if err := checkTruth(t, fmt.Sprintf("seed %d case %d", seed, i), c); err != nil {
				t.Fatalf("seed %d case %d: generated case has no truth: %v", seed, i, err)
			}
		}
	}
}

// TestEvalTruthMatchesReferenceOnCorpus rebuilds the case behind every
// planted testdata/bugcorpus/ entry the way TestWriteSeedCorpus made it,
// comparing the evaluators on the generated case and on every candidate the
// shrinker tries, and requires the shrunk result to be the committed entry
// (same kernels, launch for launch). The validate-* and analyzer entries are
// hand-built kernels with no generated case, so they have no ground truth.
func TestEvalTruthMatchesReferenceOnCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	entries, err := LoadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opts := oracleOpts{}.normalized()
	planted := 0
	for _, e := range entries {
		idx := 1
		for idx < int(PlantMalformed) && PlantClass(idx).String() != e.Class {
			idx++
		}
		if idx == int(PlantMalformed) {
			continue
		}
		planted++
		c := Generate(2026, idx)
		checkTruth(t, e.Name+" generated", c)
		victim := c.PlantedSites[0]
		tries := 0
		inner := seedCorpusOracle(victim)
		oracle := func(ctx context.Context, m *Case, o oracleOpts) []Finding {
			tries++
			checkTruth(t, fmt.Sprintf("%s candidate %d", e.Name, tries), m)
			return inner(ctx, m, o)
		}
		small := shrinkWith(ctx, c, Finding{Kind: FindShieldMissed, SiteID: victim}, 400, opts, oracle)
		checkTruth(t, e.Name+" shrunk", small)
		t.Logf("%s: %d candidates", e.Name, tries)
		kernels, err := BuildKernels(small)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if len(kernels) != len(e.Launches) {
			t.Fatalf("%s: rebuilt case has %d launches, entry %d", e.Name, len(kernels), len(e.Launches))
		}
		for li, k := range kernels {
			committed, err := kernel.DecodeJSON(e.Launches[li].Kernel)
			if err != nil {
				t.Fatalf("%s launch %d: %v", e.Name, li, err)
			}
			if !reflect.DeepEqual(k, committed) {
				t.Fatalf("%s launch %d: rebuilt kernel differs from the committed entry", e.Name, li)
			}
		}
	}
	if planted != int(PlantMalformed)-1 {
		t.Fatalf("matched %d planted corpus entries, want one per planted class (%d)", planted, int(PlantMalformed)-1)
	}
}

// TestEvalTruthMatchesReferenceWhileShrinking compares the evaluators on
// every candidate of one shrinker run. Deleting statements leaves the
// surviving sites their original IDs, so most candidates have sparse IDs.
func TestEvalTruthMatchesReferenceWhileShrinking(t *testing.T) {
	c := Generate(7, int(numPlantClasses+PlantUAF)) // use-after-free, six sites
	victim := c.PlantedSites[0]
	sparse, tries := 0, 0
	oracle := func(_ context.Context, m *Case, _ oracleOpts) []Finding {
		tries++
		if n := len(m.Sites); n > 0 && m.Sites[n-1].ID != n-1 {
			sparse++
		}
		if checkTruth(t, fmt.Sprintf("candidate %d", tries), m) != nil {
			return nil
		}
		truth, _ := EvalTruth(m)
		if s := siteByID(m, victim); s != nil && (truth[victim].AnyOOB || (s.Opaque && truth[victim].Executed)) {
			return []Finding{{Kind: FindShieldMissed, SiteID: victim}}
		}
		return nil
	}
	shrinkWith(context.Background(), c, Finding{Kind: FindShieldMissed, SiteID: victim}, 400, oracleOpts{}, oracle)
	if sparse == 0 {
		t.Fatalf("none of %d shrinker candidates had sparse site IDs", tries)
	}
	t.Logf("%d candidates, %d with sparse site IDs", tries, sparse)
}

// TestEvalTruthErrorsMatchReference compares the evaluators on hand-built
// cases that fail part-way through, so the truth gathered before the error
// is compared too, and on hand-built cases that take the vectorized
// evaluator where it differs most from the per-thread one: variables and
// budgets per thread and per launch, and narrowed active threads.
func TestEvalTruthErrorsMatchReference(t *testing.T) {
	// A 64-element writable buffer (arg 0), a read-only one (arg 1) and a
	// scalar (arg 2); the body fills in per case.
	build := func(body ...*Stmt) *Case {
		c := &Case{
			Bufs: []BufSpec{{Name: "out", Elems: 64}, {Name: "in", Elems: 64, ReadOnly: true, Init: []int64{5, 6, 7}}},
			Launches: []LaunchSpec{{
				Name: "k", Grid: 2, Block: 8,
				Args: []ArgSpec{{Buf: 0}, {Buf: 1, ReadOnly: true}, {Buf: -1, Scalar: 3}},
				Body: body, NumVars: 2,
			}},
		}
		rebuildSites(c)
		return c
	}
	nextID := 0
	access := func(kind StmtKind, buf int, elem *Expr, v int) *Stmt {
		nextID += 2 // sparse IDs, as after shrinking
		return &Stmt{
			Kind: kind, Site: &Site{ID: nextID, Buf: buf, Bytes: 8, IsStore: kind == SStore},
			Buf: buf, Elem: elem, Scale: 8, Bytes: 8, Val: konst(1), Var: v,
		}
	}
	store := func(elem *Expr) *Stmt { return access(SStore, 0, elem, 0) }
	load := func(buf int, elem *Expr, v int) *Stmt { return access(SLoad, buf, elem, v) }
	ifLT := func(x *Expr, k int64, body ...*Stmt) *Stmt {
		return &Stmt{Kind: SIf, Cond: bin(ExLT, x, konst(k)), Body: body}
	}
	ifGE := func(x *Expr, k int64, body ...*Stmt) *Stmt {
		return &Stmt{Kind: SIf, Cond: bin(ExGE, x, konst(k)), Body: body}
	}
	// thenLaunch appends a second launch like the first with its own body.
	thenLaunch := func(c *Case, body ...*Stmt) *Case {
		l := c.Launches[0]
		l.Body = body
		c.Launches = append(c.Launches, l)
		rebuildSites(c)
		return c
	}
	opaque := func(s *Stmt) *Stmt {
		s.Site.Opaque = true
		return s
	}
	loop := func(start, bound, step int64, body ...*Stmt) *Stmt {
		return &Stmt{Kind: SLoop, Start: start, Bound: bound, Step: step, Body: body}
	}

	// Each case is built by a func so that site IDs start over (2, 4, ...).
	for _, tc := range []struct {
		name, err string
		mk        func() *Case
	}{
		{"unset var never loaded", "launch 0 thread 0: read of unset var 1",
			func() *Case { return build(store(gtid()), store(evar(1))) }},
		// Threads 0–2 load var 0 and thread 3 does not: its read must fail
		// even though the previous thread set the variable.
		{"var set only by earlier threads", "launch 0 thread 3: read of unset var 0",
			func() *Case { return build(ifLT(tid(), 3, load(1, tid(), 0)), store(evar(0))) }},
		{"var beyond every loaded one", "launch 0 thread 0: read of unset var 7",
			func() *Case { return build(load(1, tid(), 0), store(evar(7))) }},
		{"tainted address", "launch 0 thread 0: tainted address at site 4 (pc 0)",
			func() *Case { return build(load(0, tid(), 0), store(evar(0))) }},
		{"tainted branch", "launch 0 thread 0: tainted branch condition",
			func() *Case {
				return build(store(tid()), &Stmt{Kind: SIf, Cond: &Expr{Kind: ExParam, Arg: 0}, Body: []*Stmt{store(gtid())}})
			}},
		{"loop budget", "launch 0 thread 0: loop budget exhausted (bound 1048576 step 1)",
			func() *Case { return build(loop(0, 1<<20, 1, store(bin(ExAnd, &Expr{Kind: ExLoopVar}, konst(63))))) }},
		{"loop var outside its loops", "launch 0 thread 0: loop var depth 1 outside 1 loops",
			func() *Case {
				return build(loop(0, 4, 1, store(&Expr{Kind: ExLoopVar}), store(&Expr{Kind: ExLoopVar, Loop: 1})))
			}},
		{"stmt kind", "launch 0 thread 0: eval of stmt kind 9",
			func() *Case { return build(store(tid()), &Stmt{Kind: 9}) }},
		{"expr kind", "launch 0 thread 0: eval of expr kind 99",
			func() *Case { return build(store(&Expr{Kind: 99, X: tid(), Y: tid()})) }},
		// Set bits do not survive a launch: launch 1 reads what launch 0
		// loaded.
		{"var set only in the previous launch", "launch 1 thread 0: read of unset var 0",
			func() *Case { return thenLaunch(build(load(1, tid(), 0), store(evar(0))), store(evar(0))) }},
		// Only the threads that take an If pay for its loop: every thread
		// runs 40,000 trips, both loops together would exhaust its budget.
		{"loops under complementary Ifs", "<nil>",
			func() *Case {
				return build(ifLT(tid(), 4, loop(0, 40000, 1)), ifGE(tid(), 4, loop(0, 40000, 1)), store(tid()))
			}},
		{"budget spent under an If", "launch 0 thread 4: loop budget exhausted (bound 30000 step 1)",
			func() *Case { return build(ifGE(tid(), 4, loop(0, 40000, 1)), loop(0, 30000, 1, store(tid()))) }},
		// Nested Ifs narrow the active threads to thread 4 alone, whose
		// store is out of bounds.
		{"nested Ifs down to one thread", "<nil>",
			func() *Case {
				return build(store(tid()), ifLT(gtid(), 5, ifGE(gtid(), 4, store(bin(ExAdd, gtid(), konst(60))))))
			}},
		// An opaque site may take a tainted index, here one loaded from the
		// writable buffer and one from a raw pointer word.
		{"opaque site with a tainted index", "<nil>",
			func() *Case {
				return build(load(0, tid(), 0), opaque(store(bin(ExAdd, evar(0), gtid()))),
					opaque(load(0, bin(ExAdd, &Expr{Kind: ExParam, Arg: 1}, tid()), 1)), opaque(store(evar(1))))
			}},
		// No error: loads from the read-only buffer feed an address, and a
		// load from the zero tail and an out-of-bounds store are recorded.
		{"clean", "<nil>",
			func() *Case {
				return build(load(1, tid(), 0), store(evar(0)), load(1, konst(40), 1),
					store(bin(ExAdd, evar(1), konst(70))), store(bin(ExAdd, &Expr{Kind: ExScalar, Arg: 2}, gtid())))
			}},
	} {
		nextID = 0
		got := checkTruth(t, tc.name, tc.mk())
		if fmt.Sprint(got) != tc.err {
			t.Errorf("%s: error %v, want %s", tc.name, got, tc.err)
		}
	}
}

// BenchmarkEvalTruth times ground truth on 700 generated cases, every plant
// class included, through EvalTruth and through the per-thread evaluator
// alone.
func BenchmarkEvalTruth(b *testing.B) {
	cases := make([]*Case, 700)
	for i := range cases {
		cases[i] = Generate(12345, i)
	}
	b.Run("EvalTruth", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			EvalTruth(cases[i%len(cases)])
		}
	})
	b.Run("per-thread", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if c := cases[i%len(cases)]; c.Malformed == nil {
				env := newThreadEnv(c)
				evalThreads(c, &env)
			}
		}
	})
}

// FuzzEvalTruth compares the evaluators on generated cases of arbitrary
// streams and indices.
func FuzzEvalTruth(f *testing.F) {
	for _, seed := range []int64{1, 7, 12345} {
		for i := 0; i < int(numPlantClasses); i++ {
			f.Add(seed, i)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, index int) {
		checkTruth(t, fmt.Sprintf("seed %d case %d", seed, index), Generate(seed, index))
	})
}
