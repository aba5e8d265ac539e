package kernelfuzz

import (
	"context"
	"testing"
)

// TestCaseAllocs bounds the allocations of fuzz cases: one batch shaped like
// gsbench's (98 cases, 14 cycles of the seven plant classes) through
// runCase. While builders and the decoder regrew each Code slice through
// 4–5 arrays and the codec leg encoded into new buffers, the batch
// allocated about 15,970 objects, and 14,800 while every launch allocated a
// BCU context per core and three maps; it now allocates about 11,060. The
// bound leaves room for a hardware pair rebuilt after a collection empties
// the pool (a fresh pair is about 450 objects). sync.Pool drops items at
// random under the race detector, so the test needs a build without it.
func TestCaseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	cases := make([]*Case, 98)
	for i := range cases {
		cases[i] = Generate(12345*65536, i)
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(5, func() {
		for _, c := range cases {
			runCase(ctx, c, oracleOpts{})
		}
	})
	if allocs > 11700 {
		t.Errorf("a 98-case batch allocated %.0f objects, want <= 11,700", allocs)
	}
}
