package randsrc

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

var _ rand.Source64 = (*Source)(nil)

// draws is how many values each rand.Rand method draws per seed.
const draws = 1500

// methods are the rand.Rand methods the program calls (Intn, Int63n,
// Float32, Float64, Perm, Uint64) plus the rest of the ones built on
// Int63/Uint64, each with arguments that take its different paths: small
// and power-of-two bounds, bounds over 2³¹ for Int63n's rejection loop.
var methods = []struct {
	name string
	draw func(r *rand.Rand, i int, out []uint64) []uint64
}{
	{"Int63", func(r *rand.Rand, _ int, out []uint64) []uint64 { return append(out, uint64(r.Int63())) }},
	{"Uint64", func(r *rand.Rand, _ int, out []uint64) []uint64 { return append(out, r.Uint64()) }},
	{"Uint32", func(r *rand.Rand, _ int, out []uint64) []uint64 { return append(out, uint64(r.Uint32())) }},
	{"Int31", func(r *rand.Rand, _ int, out []uint64) []uint64 { return append(out, uint64(r.Int31())) }},
	{"Int", func(r *rand.Rand, _ int, out []uint64) []uint64 { return append(out, uint64(r.Int())) }},
	{"Intn", func(r *rand.Rand, i int, out []uint64) []uint64 {
		return append(out, uint64(r.Intn([]int{1, 2, 3, 7, 64, 1000, 1 << 20}[i%7])))
	}},
	{"Int31n", func(r *rand.Rand, i int, out []uint64) []uint64 {
		return append(out, uint64(r.Int31n([]int32{1, 5, 1 << 30, math.MaxInt32}[i%4])))
	}},
	{"Int63n", func(r *rand.Rand, i int, out []uint64) []uint64 {
		return append(out, uint64(r.Int63n([]int64{3, 1 << 16, 1<<40 + 1, math.MaxInt64}[i%4])))
	}},
	{"Float64", func(r *rand.Rand, _ int, out []uint64) []uint64 { return append(out, math.Float64bits(r.Float64())) }},
	{"Float32", func(r *rand.Rand, _ int, out []uint64) []uint64 {
		return append(out, uint64(math.Float32bits(r.Float32())))
	}},
	{"Perm", func(r *rand.Rand, i int, out []uint64) []uint64 {
		for _, v := range r.Perm(i % 9) {
			out = append(out, uint64(v))
		}
		return out
	}},
}

// drawBoth draws once through m from got and from want and reports whether
// the values match, formatted for a failure message when they do not.
func drawBoth(m int, got, want *rand.Rand, i int) (string, bool) {
	var gb, wb [8]uint64
	g := methods[m].draw(got, i, gb[:0])
	w := methods[m].draw(want, i, wb[:0])
	if slices.Equal(g, w) {
		return "", true
	}
	return fmt.Sprintf("%s draw %d = %v, math/rand %v", methods[m].name, i, g, w), false
}

// namedSeeds covers the folding edge cases of Seed: zero, signs, the
// extremes of int64, the modulus 2³¹−1 and its multiples (which fold to 0
// and take the replacement seed), and its neighbours.
var namedSeeds = []int64{
	0, 1, -1, 7, 12345, math.MinInt64, math.MaxInt64,
	modulus, -modulus, 2 * modulus, 3 * modulus, -5 * modulus, (math.MaxInt64 / modulus) * modulus,
	modulus - 1, modulus + 1, -modulus - 1, -modulus + 1, zeroSeed,
}

// randomSeeds returns n seeds spread over the whole int64 range.
func randomSeeds(n int) []int64 {
	r := rand.New(rand.NewSource(20))
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = int64(r.Uint64())
	}
	return seeds
}

// compare draws from got and want through every method and reports the
// first difference.
func compare(t *testing.T, label string, got, want *rand.Rand) {
	t.Helper()
	for m := range methods {
		for i := 0; i < draws; i++ {
			if msg, ok := drawBoth(m, got, want, i); !ok {
				t.Fatalf("%s: %s", label, msg)
			}
		}
	}
}

// TestMatchesMathRand seeds a Source and a math/rand source identically and
// requires every method of rand.Rand to draw the same values: draws values
// per method for each named seed, and draws values per random seed taken
// through the methods in turn.
func TestMatchesMathRand(t *testing.T) {
	for _, seed := range namedSeeds {
		compare(t, fmt.Sprintf("seed %d", seed), rand.New(New(seed)), rand.New(rand.NewSource(seed)))
	}
	for _, seed := range randomSeeds(2000) {
		got, want := rand.New(New(seed)), rand.New(rand.NewSource(seed))
		for i := 0; i < draws; i++ {
			if msg, ok := drawBoth(i%len(methods), got, want, i); !ok {
				t.Fatalf("seed %d: %s", seed, msg)
			}
		}
	}
}

// TestReseedMatchesMathRand re-seeds used sources, through Source.Seed and
// through rand.Rand.Seed, and compares them again.
func TestReseedMatchesMathRand(t *testing.T) {
	src, ref := New(99), rand.NewSource(99)
	got, want := rand.New(src), rand.New(ref)
	seeds := append(namedSeeds, randomSeeds(50)...)
	for i, seed := range seeds {
		if i%2 == 0 {
			src.Seed(seed)
			ref.Seed(seed)
		} else {
			got.Seed(seed)
			want.Seed(seed)
		}
		compare(t, fmt.Sprintf("re-seed %d with %d", i, seed), got, want)
	}
}

// TestReseedAfterDraws re-seeds a source after n draws, for n on both sides
// of the last lazy draw (rngTap) and of the first pass over the array
// (rngLen), and then compares it with math/rand through every method. A
// re-seeded source must also be bit for bit a new one: Seed clears the
// words its draws left behind.
func TestReseedAfterDraws(t *testing.T) {
	counts := []int{0, 1, rngTap - 1, rngTap, rngTap + 1, rngLen - 1, rngLen, rngLen + 1, draws}
	for _, n := range counts {
		for m := range methods {
			src, ref := New(5), rand.NewSource(5).(rand.Source64)
			for i := 0; i < n; i++ {
				if g, w := src.Uint64(), ref.Uint64(); g != w {
					t.Fatalf("draw %d before the re-seed = %d, math/rand %d", i, g, w)
				}
			}
			seed := int64(1000*n + m)
			got, want := rand.New(src), rand.New(ref)
			if m%2 == 0 {
				src.Seed(seed)
				ref.Seed(seed)
			} else {
				got.Seed(seed)
				want.Seed(seed)
			}
			if *src != *New(seed) {
				t.Fatalf("re-seeded after %d draws: the source differs from New(%d)", n, seed)
			}
			for i := 0; i < draws; i++ {
				if msg, ok := drawBoth(m, got, want, i); !ok {
					t.Fatalf("re-seeded after %d draws: %s", n, msg)
				}
			}
		}
	}
}

// TestMulMod checks the Mersenne reduction against the % operator at the
// edges of its domain and on random operands.
func TestMulMod(t *testing.T) {
	edges := []uint64{0, 1, 2, lehmerA, modulus - 2, modulus - 1, 1 << 30, 1<<30 + 1}
	for _, a := range edges {
		for _, b := range edges {
			if g, w := mulMod(a, b), a*b%modulus; g != w {
				t.Fatalf("mulMod(%d, %d) = %d, want %d", a, b, g, w)
			}
		}
	}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 100000; i++ {
		a, b := uint64(r.Int63n(modulus)), uint64(r.Int63n(modulus))
		if g, w := mulMod(a, b), a*b%modulus; g != w {
			t.Fatalf("mulMod(%d, %d) = %d, want %d", a, b, g, w)
		}
	}
}

// FuzzSource checks the same property on arbitrary seed pairs: identical
// draws after seeding, and again after re-seeding sources that drew a
// fuzzed number of values (up to two passes over the array) first.
func FuzzSource(f *testing.F) {
	for i, s := range namedSeeds {
		f.Add(s, -s, uint16([]int{0, 1, rngTap, rngTap + 1, rngLen}[i%5]))
	}
	f.Fuzz(func(t *testing.T, seed, reseed int64, n uint16) {
		got, want := rand.New(New(seed)), rand.New(rand.NewSource(seed))
		for round, s := range []int64{seed, reseed} {
			draws := 2 * rngLen
			if round == 0 {
				draws = int(n) % (2*rngLen + 1)
			} else {
				got.Seed(s)
				want.Seed(s)
			}
			for i := 0; i < draws; i++ {
				if msg, ok := drawBoth(i%len(methods), got, want, i); !ok {
					t.Fatalf("seed %d: %s", s, msg)
				}
			}
		}
	})
}

// BenchmarkSeedDraw times a re-seed and the first n draws through
// rand.Rand, the shape of a fuzz case (a few draws per source) and of a
// workload data set (many).
func BenchmarkSeedDraw(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("draws=%d", n), func(b *testing.B) {
			r := rand.New(New(1))
			var sink int64
			for i := 0; i < b.N; i++ {
				r.Seed(int64(i))
				for j := 0; j < n; j++ {
					sink += r.Int63()
				}
			}
			benchSink = sink
		})
	}
}

var benchSink int64
