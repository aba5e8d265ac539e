package kernelfuzz

import (
	"context"
	"fmt"
	"os"
	"testing"

	"gpushield/internal/driver"
	"gpushield/internal/kernel"
)

// corpusDir is the persistent bug corpus, shared with corpus_test.go.
const corpusDir = "../../testdata/bugcorpus"

// TestFuzzZeroFindings is the core soundness property: across every plant
// class, the three oracle legs agree. Any finding here is a real
// disagreement between compiler, BCU, and ground truth.
func TestFuzzZeroFindings(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rep, err := Run(context.Background(), Options{Seed: 1, Count: 210, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Findings {
		t.Errorf("%s", f)
	}
	for _, cs := range rep.Classes {
		if cs.Cases == 0 {
			t.Errorf("class %s: no cases generated", cs.Class)
		}
	}
}

// TestFuzzDeterministicAcrossParallelism: the same seed must render the
// same report bytes at any case-parallel and core-parallel width.
func TestFuzzDeterministicAcrossParallelism(t *testing.T) {
	base, err := Run(context.Background(), Options{Seed: 3, Count: 42, Parallel: 1, CoreParallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, alt := range []Options{
		{Seed: 3, Count: 42, Parallel: 4, CoreParallel: 1},
		{Seed: 3, Count: 42, Parallel: 2, CoreParallel: 2},
	} {
		rep, err := Run(context.Background(), alt)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Render() != base.Render() {
			t.Fatalf("report differs at parallel=%d core-parallel=%d:\n%s\n--- vs ---\n%s",
				alt.Parallel, alt.CoreParallel, rep.Render(), base.Render())
		}
	}
}

// TestPlantedFaultsDetectedByBCU pins the zero-silent-miss property
// directly: for every planted OOB class, the full-runtime BCU leg reports
// a violation at exactly the planted site's PC.
func TestPlantedFaultsDetectedByBCU(t *testing.T) {
	classes := map[PlantClass]bool{}
	for i := 0; i < 35; i++ {
		c := Generate(11, i)
		if len(c.PlantedSites) == 0 {
			continue
		}
		classes[c.Class] = true
		kernels, err := BuildKernels(c)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		hw := newHardware(legConfig(oracleOpts{}.normalized()), legSeed(c, driver.ModeShield))
		stats, _, err := deviceRun(context.Background(), hw, c, kernels, nil, driver.ModeShield)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		for _, id := range c.PlantedSites {
			s := siteByID(c, id)
			hit := false
			for _, v := range stats[s.Launch].Violations {
				if v.PC == s.PC {
					hit = true
					break
				}
			}
			if !hit {
				t.Errorf("case %d class %s: planted site %d (launch %d pc %d) not flagged by BCU",
					i, c.Class, id, s.Launch, s.PC)
			}
		}
	}
	for _, want := range []PlantClass{PlantIndirect, PlantOffByOne, PlantStraddle, PlantDivergent, PlantUAF} {
		if !classes[want] {
			t.Errorf("class %s never exercised", want)
		}
	}
}

// TestUAFStalePointerFlaggedBothModes: the cross-launch use-after-free must
// be caught under full-runtime AND compiler-assisted protection.
func TestUAFStalePointerFlaggedBothModes(t *testing.T) {
	c := Generate(5, 5) // index 5 -> PlantUAF
	if c.Class != PlantUAF {
		t.Fatalf("index 5 is class %s, want use-after-free", c.Class)
	}
	fs := runCase(context.Background(), c, oracleOpts{})
	for _, f := range fs {
		t.Errorf("%s", f)
	}
}

// TestShrinkReducesSyntheticBug drives the shrinker against an injected
// "detector misses the planted site" bug for every planted class and
// requires reproducers of at most 25 instructions.
func TestShrinkReducesSyntheticBug(t *testing.T) {
	for _, idx := range []int{1, 2, 3, 4, 5} {
		c := Generate(7, idx)
		victim := c.PlantedSites[0]
		oracle := func(ctx context.Context, m *Case, _ oracleOpts) []Finding {
			truth, err := EvalTruth(m)
			if err != nil {
				return nil
			}
			s := siteByID(m, victim)
			if s == nil {
				return nil
			}
			st := truth[victim]
			if (s.Opaque && st.Executed) || (!s.Opaque && st.AnyOOB) {
				return []Finding{{Kind: FindShieldMissed, SiteID: victim}}
			}
			return nil
		}
		target := Finding{Kind: FindShieldMissed, SiteID: victim}
		small := shrinkWith(context.Background(), c, target, 400, oracleOpts{}, oracle)
		if n := InstrCount(small); n > 25 {
			t.Errorf("class %s: shrunk to %d instructions, want <= 25", c.Class, n)
		}
		if !matchesTarget(oracle(context.Background(), small, oracleOpts{}), target) {
			t.Errorf("class %s: shrunk case no longer reproduces the target", c.Class)
		}
	}
}

// TestMalformedClassDrivesSentinels: the negative generator must produce
// kernels Validate rejects with the recorded sentinel (runCase turns any
// gap into a finding).
func TestMalformedClassDrivesSentinels(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 210; i++ {
		c := Generate(13, i)
		if c.Class != PlantMalformed {
			continue
		}
		seen[c.Malformed.Name] = true
		for _, f := range runCase(context.Background(), c, oracleOpts{}) {
			t.Errorf("%s", f)
		}
	}
	if len(seen) < 8 {
		t.Errorf("only %d distinct corruption shapes exercised, want >= 8 (%v)", len(seen), seen)
	}
}

// TestWriteSeedCorpus regenerates the committed seed corpus when
// GPUSHIELD_WRITE_CORPUS=1 is set. The entries are regression guards:
// one shrunk reproducer per planted class, two Validate-gap kernels, and
// one analyzer interval-overflow kernel — all passing today, replayed
// forever by corpus_test.go.
func TestWriteSeedCorpus(t *testing.T) {
	if os.Getenv("GPUSHIELD_WRITE_CORPUS") != "1" {
		t.Skip("set GPUSHIELD_WRITE_CORPUS=1 to rewrite the seed corpus")
	}
	ctx := context.Background()
	opts := oracleOpts{}.normalized()

	// One reproducer per planted OOB class, shrunk against a target that
	// keeps the committed kernels small while staying semantically whole:
	// the planted site must still fault per ground truth AND the real
	// oracle must remain disagreement-free (which rules out degenerate
	// reductions like deleting the escrow store of the UAF pair).
	for _, idx := range []int{1, 2, 3, 4, 5} {
		c := Generate(2026, idx)
		victim := c.PlantedSites[0]
		small := shrinkWith(ctx, c, Finding{Kind: FindShieldMissed, SiteID: victim}, 400, opts, seedCorpusOracle(victim))
		// The shrunk case must still be disagreement-free on the real
		// oracle before it becomes a corpus expectation.
		if fs := runCase(ctx, small, opts); len(fs) > 0 {
			t.Fatalf("class %s: shrunk case has findings: %v", c.Class, fs)
		}
		name := fmt.Sprintf("planted-%s", c.Class)
		entry, err := EntryFromCase(ctx, small, name,
			fmt.Sprintf("shrunk %s plant from seed 2026; guards BCU detection at the recorded PCs", c.Class), opts)
		if err != nil {
			t.Fatalf("class %s: %v", c.Class, err)
		}
		if len(entry.Expect.Shield) == 0 {
			t.Fatalf("class %s: entry expects no shield violations — inert plant", c.Class)
		}
		if err := SaveEntry(corpusDir, entry); err != nil {
			t.Fatal(err)
		}
	}

	// Validate-gap kernels: decode fine, must be rejected with the exact
	// sentinel. Both corruptions were accepted by Validate before the
	// hardening and crashed the simulator instead.
	for _, mc := range []struct {
		name     string
		corrupt  func(*kernel.Kernel)
		sentinel string
	}{
		{"validate-branch-past-end", func(k *kernel.Kernel) {
			k.Code[2] = kernel.Instr{Op: kernel.OpBraUni, Dst: -1, Pred: -1, Label: 99}
		}, "ErrBadBranch"},
		{"validate-uninit-read", func(k *kernel.Kernel) {
			k.Code[1].Src[2] = kernel.Reg(1)
		}, "ErrUninitRead"},
	} {
		k := minimalValidKernel()
		mc.corrupt(k)
		raw, err := k.EncodeJSON()
		if err != nil {
			t.Fatalf("%s: %v", mc.name, err)
		}
		entry := &CorpusEntry{
			Name: mc.name, Class: PlantMalformed.String(),
			Note:        "structurally invalid kernel; Validate must return the named sentinel (pre-hardening it was accepted)",
			ValidateErr: mc.sentinel,
			Launches:    []CorpusLaunch{{Kernel: raw}},
		}
		if _, err := Replay(entry, 1); err != nil {
			t.Fatalf("%s does not replay: %v", mc.name, err)
		}
		if err := SaveEntry(corpusDir, entry); err != nil {
			t.Fatal(err)
		}
	}

	// Analyzer interval-overflow guard: a constant-scaled offset whose
	// interval arithmetic used to wrap int64 and come back "provably
	// safe". The access must never be StaticSafe again.
	{
		b := kernel.NewBuilder("overflow_guard")
		d := b.BufferParam("d", false)
		huge := b.Mul(b.GlobalTID(), kernel.Imm(int64(1)<<61))
		b.StoreGlobal(b.AddScaled(d, huge, 8), b.TID(), 8)
		b.Exit()
		k, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		pc := b.Len() - 2 // the st; Exit is last
		raw, err := k.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		entry := &CorpusEntry{
			Name: "analyzer-interval-overflow", Class: "analyzer",
			Note:        "offset interval overflows int64; pre-fix the analyzer wrapped and proved this StaticSafe",
			AnalyzeOnly: true,
			Bufs:        []CorpusBuf{{Name: "d", Bytes: 256}},
			Launches:    []CorpusLaunch{{Kernel: raw, Grid: 1, Block: 32, Args: []CorpusArg{{Buf: 0}}}},
			Expect:      CorpusExpect{NotStaticSafe: []int{pc}},
		}
		if _, err := Replay(entry, 1); err != nil {
			t.Fatalf("overflow entry does not replay: %v", err)
		}
		if err := SaveEntry(corpusDir, entry); err != nil {
			t.Fatal(err)
		}
	}
}

// seedCorpusOracle is the target the planted seed-corpus entries are
// shrunk against: the planted site must still fault per ground truth AND
// the real oracle must remain disagreement-free.
func seedCorpusOracle(victim int) oracleFunc {
	return func(ctx context.Context, m *Case, o oracleOpts) []Finding {
		if fs := runCase(ctx, m, o); len(fs) > 0 {
			return nil
		}
		truth, err := EvalTruth(m)
		if err != nil {
			return nil
		}
		s := siteByID(m, victim)
		if s == nil {
			return nil
		}
		st := truth[victim]
		if (s.Opaque && st.Executed) || (!s.Opaque && st.AnyOOB) {
			return []Finding{{Kind: FindShieldMissed, SiteID: victim}}
		}
		return nil
	}
}

func minimalValidKernel() *kernel.Kernel {
	return &kernel.Kernel{
		Name:    "corpus_seed",
		Params:  []kernel.ParamSpec{{Name: "d", Kind: kernel.ParamBuffer}},
		NumRegs: 2,
		Code: []kernel.Instr{
			{Op: kernel.OpMov, Dst: 0, Src: [3]kernel.Operand{kernel.Imm(0)}, Pred: -1},
			{Op: kernel.OpSt, Dst: -1, Src: [3]kernel.Operand{kernel.Param(0), {}, kernel.Reg(0)}, Pred: -1, Space: kernel.SpaceGlobal, Bytes: 8},
			{Op: kernel.OpExit, Dst: -1, Pred: -1},
		},
	}
}

// TestCorpusEntryRoundTrip: saving and loading an entry preserves it.
func TestCorpusEntryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := Generate(5, 2) // off-by-one
	entry, err := EntryFromCase(context.Background(), c, "rt", "round-trip check", oracleOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveEntry(dir, entry); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 1 || loaded[0].Name != "rt" {
		t.Fatalf("loaded %d entries, want the one named rt", len(loaded))
	}
	if _, err := Replay(loaded[0], 1); err != nil {
		t.Fatalf("loaded entry does not replay: %v", err)
	}
}

// TestEmitLenMatchesBuild requires emitLen, which sizes each kernel's Code
// before BuildKernels emits it, to count exactly the instructions emitted
// for every launch of 1,200 generated cases.
func TestEmitLenMatchesBuild(t *testing.T) {
	for _, seed := range []int64{1, 7, 12345} {
		for i := 0; i < 400; i++ {
			c := Generate(seed, i)
			if c.Malformed != nil {
				continue
			}
			kernels, err := BuildKernels(c)
			if err != nil {
				t.Fatalf("seed %d case %d: %v", seed, i, err)
			}
			for li, k := range kernels {
				if want := emitLen(c.Launches[li].Body) + 1; len(k.Code) != want {
					t.Fatalf("seed %d case %d launch %d: %d instructions, emitLen counts %d", seed, i, li, len(k.Code), want)
				}
			}
		}
	}
}
