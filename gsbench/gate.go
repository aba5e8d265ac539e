package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"gpushield/internal/experiments"
	"gpushield/internal/kernelfuzz"
	"gpushield/internal/pool"
	"gpushield/internal/sim"
)

// The correctness goldens, recorded with -record at the default seed. A
// change that alters simulated statistics or the fuzz report on purpose
// re-records them and says why.
var (
	//go:embed testdata/sweep_stats.json
	sweepGoldenJSON []byte
	//go:embed testdata/fuzz_reports.json
	fuzzGoldenJSON []byte
)

// statFields names the LaunchStats values the sweep gate compares, in the
// order statValues returns them.
var statFields = []string{
	"Cycles", "WarpInstrs", "ThreadInstrs", "MemInstrs", "Transactions", "SharedAccs",
	"L1DAccesses", "L1DHits", "L2Accesses", "L2Hits", "L1TLBMisses", "L2TLBMisses",
	"Checks", "Type3Checks", "Skipped", "RL1Hits", "RL2Hits", "RBTFetches", "BCUStalls",
	"Violations",
}

func statValues(st *sim.LaunchStats) []uint64 {
	return []uint64{
		st.Cycles(), st.WarpInstrs, st.ThreadInstrs, st.MemInstrs, st.Transactions, st.SharedAccs,
		st.L1DAccesses, st.L1DHits, st.L2Accesses, st.L2Hits, st.L1TLBMisses, st.L2TLBMisses,
		st.Checks, st.Type3Checks, st.Skipped, st.RL1Hits, st.RL2Hits, st.RBTFetches, st.BCUStalls,
		uint64(len(st.Violations)),
	}
}

type sweepGolden struct {
	Seed   int64               `json:"seed"`
	Scale  int                 `json:"scale"`
	Fields []string            `json:"fields"`
	Runs   map[string][]uint64 `json:"runs"`
}

type fuzzGolden struct {
	Seed  int64 `json:"seed"`
	Batch int   `json:"batch"`
	// Reports holds the SHA-256 of each batch's rendered report, batch 0
	// first.
	Reports []string `json:"reports_sha256"`
}

// gate holds the recorded outputs the workloads are checked against.
type gate struct {
	sweep sweepGolden
	fuzz  fuzzGolden
}

func loadGate() (*gate, error) {
	g := &gate{}
	if err := json.Unmarshal(sweepGoldenJSON, &g.sweep); err != nil {
		return nil, fmt.Errorf("sweep golden: %w", err)
	}
	if err := json.Unmarshal(fuzzGoldenJSON, &g.fuzz); err != nil {
		return nil, fmt.Errorf("fuzz golden: %w", err)
	}
	if g.sweep.Scale != sweepScale || g.fuzz.Batch != fuzzBatch {
		return nil, fmt.Errorf("goldens recorded at sweep scale %d and fuzz batch %d, run uses %d and %d; re-record them",
			g.sweep.Scale, g.fuzz.Batch, sweepScale, fuzzBatch)
	}
	if len(g.sweep.Fields) != len(statFields) {
		return nil, fmt.Errorf("sweep golden has %d fields, want %d", len(g.sweep.Fields), len(statFields))
	}
	for i, f := range statFields {
		if g.sweep.Fields[i] != f {
			return nil, fmt.Errorf("sweep golden field %d is %s, want %s", i, g.sweep.Fields[i], f)
		}
	}
	return g, nil
}

// checkRun judges one sweep run: it must finish without error, abort or
// violation (every registered benchmark is benign), and at the golden's
// seed its statistics must equal the recorded ones. It returns "" when the
// run passes.
func (g *gate) checkRun(seed int64, j sweepJob, st *sim.LaunchStats, err error) string {
	switch {
	case err != nil:
		return fmt.Sprintf("%s: %v", j.key(), err)
	case st == nil:
		return j.key() + ": no statistics"
	case st.Aborted:
		return fmt.Sprintf("%s: aborted: %s", j.key(), st.AbortMsg)
	case len(st.Violations) > 0:
		return fmt.Sprintf("%s: %d violations in a benign benchmark", j.key(), len(st.Violations))
	}
	if seed != g.sweep.Seed {
		return ""
	}
	want, ok := g.sweep.Runs[j.key()]
	if !ok {
		return j.key() + ": no recorded statistics"
	}
	got := statValues(st)
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("%s: %s = %d, recorded %d", j.key(), statFields[i], got[i], want[i])
		}
	}
	return ""
}

// checkFuzzBatch judges one fuzz batch: every finding is a failure, and at
// the golden's seed the rendered report must hash to the recorded one. It
// returns the number of failed cases — the cases findings name, or the
// whole batch when its report differs — and one line per failure.
func (g *gate) checkFuzzBatch(seed int64, batch int, rep *kernelfuzz.Report) (int, []string) {
	var fails []string
	failedCases := map[int]bool{}
	for _, f := range rep.Findings {
		failedCases[f.Case] = true
		fails = append(fails, fmt.Sprintf("fuzz batch %d: %s", batch, f))
	}
	failed := len(failedCases)
	if seed == g.fuzz.Seed && batch < len(g.fuzz.Reports) {
		if h := renderHash(rep); h != g.fuzz.Reports[batch] {
			failed = fuzzBatch
			fails = append(fails, fmt.Sprintf("fuzz batch %d: report hash %s, recorded %s", batch, h, g.fuzz.Reports[batch]))
		}
	}
	return failed, fails
}

func renderHash(rep *kernelfuzz.Report) string {
	sum := sha256.Sum256([]byte(rep.Render()))
	return hex.EncodeToString(sum[:])
}

// recordedFuzzBatches is how many fuzz batches -record hashes: more than
// a 60-second run completes on a 2-CPU host.
const recordedFuzzBatches = 512

// recordGoldens runs one sweep pass and the first fuzz batches at the
// default seed and writes their outputs into dir.
func recordGoldens(ctx context.Context, dir string) error {
	workers := runtime.NumCPU()
	jobs := sweepJobs()
	sg := sweepGolden{Seed: defaultSeed, Scale: sweepScale, Fields: statFields, Runs: map[string][]uint64{}}
	vals := make([][]uint64, len(jobs))
	e := experiments.NewEngine(workers)
	err := pool.ForEachErrCtx(ctx, workers, len(jobs), func(i int) error {
		st, err := e.RunBenchmark(ctx, jobs[i].bench, experiments.RunOpts{
			Mode: jobs[i].mode, Scale: sweepScale, Seed: experiments.FixedSeed(defaultSeed)})
		if err != nil {
			return fmt.Errorf("%s: %w", jobs[i].key(), err)
		}
		vals[i] = statValues(st)
		return nil
	})
	if err != nil {
		return err
	}
	for i, j := range jobs {
		sg.Runs[j.key()] = vals[i]
	}

	fg := fuzzGolden{Seed: defaultSeed, Batch: fuzzBatch}
	for b := 0; b < recordedFuzzBatches; b++ {
		rep, err := kernelfuzz.Run(ctx, fuzzOptions(defaultSeed, b, workers))
		if err != nil {
			return fmt.Errorf("fuzz batch %d: %w", b, err)
		}
		if len(rep.Findings) > 0 {
			return fmt.Errorf("fuzz batch %d: %d findings", b, len(rep.Findings))
		}
		fg.Reports = append(fg.Reports, renderHash(rep))
	}

	if err := os.WriteFile(filepath.Join(dir, "sweep_stats.json"), sweepGoldenText(sg), 0o644); err != nil {
		return err
	}
	b, err := json.MarshalIndent(fg, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "fuzz_reports.json"), append(b, '\n'), 0o644)
}

// sweepGoldenText renders the sweep golden with one run per line, sorted
// by key, so a re-recording diffs run by run.
func sweepGoldenText(sg sweepGolden) []byte {
	var b bytes.Buffer
	fields, _ := json.Marshal(sg.Fields) // []string: cannot fail
	fmt.Fprintf(&b, "{\n \"seed\": %d,\n \"scale\": %d,\n \"fields\": %s,\n \"runs\": {\n", sg.Seed, sg.Scale, fields)
	keys := make([]string, 0, len(sg.Runs))
	for k := range sg.Runs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		vals, _ := json.Marshal(sg.Runs[k]) // []uint64: cannot fail
		sep := ","
		if i == len(keys)-1 {
			sep = ""
		}
		fmt.Fprintf(&b, "  %q: %s%s\n", k, vals, sep)
	}
	b.WriteString(" }\n}\n")
	return b.Bytes()
}
