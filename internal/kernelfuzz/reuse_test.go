package kernelfuzz

import (
	"context"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"gpushield/internal/compiler"
	"gpushield/internal/driver"
	"gpushield/internal/kernel"
)

// legResult is one runtime leg's outcome in comparable form.
type legResult struct {
	stats    []byte // per-launch LaunchStats as JSON
	findings []Finding
}

// runLegOn runs one leg of c on hw and judges it.
func runLegOn(t *testing.T, hw *hardware, c *Case, kernels []*kernel.Kernel, analyses []*compiler.Analysis, mode driver.Mode, truth map[int]*SiteTruth) legResult {
	t.Helper()
	stats, launches, err := deviceRun(context.Background(), hw, c, kernels, analyses, mode)
	raw, jerr := json.Marshal(stats)
	if jerr != nil {
		t.Fatal(jerr)
	}
	return legResult{stats: raw, findings: judgeLeg(c, mode, truth, stats, launches, err)}
}

// TestReusedHardwareMatchesFresh evaluates 360 cases in shuffled order (the
// 300-odd that have runtime legs), every leg on one pair that is reset
// between legs, and requires each leg's per-launch LaunchStats and findings
// to equal those from a freshly built pair.
func TestReusedHardwareMatchesFresh(t *testing.T) {
	cfg := legConfig(oracleOpts{}.normalized())
	shared := newHardware(cfg, 0)
	cases := 0
	for _, i := range rand.New(rand.NewSource(16)).Perm(360) {
		c := Generate(5, i)
		if c.Malformed != nil {
			continue // validate-only: no runtime legs
		}
		kernels, err := BuildKernels(c)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		truth, err := EvalTruth(c)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		analyses := make([]*compiler.Analysis, len(kernels))
		static := true
		for li, k := range kernels {
			if analyses[li], err = compiler.Analyze(k, launchInfo(c, li)); err != nil {
				t.Fatalf("case %d: %v", i, err)
			}
			static = static && len(analyses[li].OOBReports) == 0
		}
		cases++
		modes := []driver.Mode{driver.ModeShield}
		if static {
			modes = append(modes, driver.ModeShieldStatic)
		}
		for _, mode := range modes {
			var an []*compiler.Analysis
			if mode == driver.ModeShieldStatic {
				an = analyses
			}
			seed := legSeed(c, mode)
			want := runLegOn(t, newHardware(cfg, seed), c, kernels, an, mode, truth)
			shared.dev.Reset(seed)
			shared.gpu.Reset()
			got := runLegOn(t, shared, c, kernels, an, mode, truth)
			if string(got.stats) != string(want.stats) {
				t.Fatalf("case %d %s: reused pair's LaunchStats differ\n got: %s\nwant: %s", i, mode, got.stats, want.stats)
			}
			if !reflect.DeepEqual(got.findings, want.findings) {
				t.Fatalf("case %d %s: reused pair's findings differ\n got: %v\nwant: %v", i, mode, got.findings, want.findings)
			}
		}
	}
	if cases < 300 {
		t.Fatalf("only %d cases with runtime legs compared", cases)
	}
}

// TestPooledHardwareReuseAcrossWorkers runs the same cases through the
// pooled path serially and on four workers, where pairs move between
// goroutines, and twice in a row, where the second run starts from pairs
// the first one left in the pool. All reports must be byte-identical.
func TestPooledHardwareReuseAcrossWorkers(t *testing.T) {
	ctx := context.Background()
	var renders []string
	for _, par := range []int{1, 4, 4} {
		rep, err := Run(ctx, Options{Seed: 9, Count: 70, Parallel: par})
		if err != nil {
			t.Fatal(err)
		}
		renders = append(renders, rep.Render())
	}
	for i := 1; i < len(renders); i++ {
		if renders[i] != renders[0] {
			t.Fatalf("report %d differs from the serial one:\n%s\nvs\n%s", i, renders[i], renders[0])
		}
	}
}
