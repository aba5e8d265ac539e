// Package randsrc is the program's seeded random source. A Source yields
// exactly the sequence of math/rand's rand.NewSource(seed) — the same
// 607-word additive lagged Fibonacci generator, drawn the same way — but
// seeds it without math/rand's dependent chain of 1,841 Lehmer steps.
//
// math/rand seeds its state word i from three consecutive values of the
// chain x_{j+1} = 48271·x_j mod (2³¹−1), starting at the folded seed s, so
// x_j = s·48271^j mod (2³¹−1). Seed computes every x_j on its own from a
// table of the powers 48271^j, each a multiply and a division-free Mersenne
// reduction, so the 1,841 products do not wait on one another.
//
// Seed does not compute the words at all: it stores the folded seed and
// clears the array. The first rngTap draws after it read only words no
// draw has written yet, so each computes its two words from the seed; the
// draw after them computes the words still missing in one pass. A source
// that is seeded and drawn a few times (a fuzz case, a device reset) pays
// for the few words it touches, and a long sequence still computes each
// word once.
//
// math/rand XORs each word with a fixed table (rngCooked). Seed recovers
// that table once, on first use, from rand.NewSource(1): the first 607
// values it draws are its whole state after 607 steps, and undoing those
// steps and XOR-ing out seed 1's chain leaves the table. math/rand is kept
// as that source and as the reference of the package's differential tests.
package randsrc

import (
	"math/rand"
	"sync"
)

const (
	rngLen  = 607 // state words
	rngTap  = 273 // lag of the second tap
	rngMask = 1<<63 - 1
	modulus = 1<<31 - 1 // the Lehmer modulus, a Mersenne prime
	lehmerA = 48271     // the Lehmer multiplier
	// chainSkip is the number of Lehmer values Seed discards before the
	// three it draws for each state word.
	chainSkip = 20
	// zeroSeed replaces a seed that folds to 0, as math/rand does.
	zeroSeed = 89482311
)

// Source is a rand.Source64 producing the sequence of rand.NewSource with
// the same seed. It is not safe for concurrent use.
type Source struct {
	tap  int
	feed int
	// lazy is one more than the number of lazy draws left: a draw that
	// leaves it above 0 computes its words from seed, and the draw that
	// takes it to 0 fills in the rest of vec first.
	lazy int
	seed uint64 // the folded seed
	vec  [rngLen]int64
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

var (
	tablesOnce sync.Once
	// pows[i][k] = 48271^j mod (2³¹−1) for j = chainSkip+1 + 3i + k, the
	// power that turns the folded seed into chain value x_j.
	pows [rngLen][3]uint64
	// cooked is math/rand's rngCooked table.
	cooked [rngLen]int64
)

// Seed sets the state rand.NewSource(seed) starts in. The words are left
// to the draws (see lazyUint64), and the array is cleared so that a
// re-seeded Source is bit for bit New(seed), whatever it drew before.
func (s *Source) Seed(seed int64) {
	tablesOnce.Do(initTables)
	seed %= modulus
	if seed < 0 {
		seed += modulus
	}
	if seed == 0 {
		seed = zeroSeed
	}
	*s = Source{feed: rngLen - rngTap, lazy: rngTap + 1, seed: uint64(seed)}
}

// word is state word i as math/rand seeds it.
func (s *Source) word(i int) int64 {
	return chainWord(s.seed, &pows[i]) ^ cooked[i]
}

// chainWord is the chain part of a state word under folded seed x: its
// three Lehmer values, shifted and XOR-ed as math/rand combines them.
func chainWord(x uint64, p *[3]uint64) int64 {
	u := int64(mulMod(x, p[0])) << 40
	u ^= int64(mulMod(x, p[1])) << 20
	return u ^ int64(mulMod(x, p[2]))
}

// mulMod returns a·b mod (2³¹−1) for a, b < 2³¹−1. The product is below
// 2⁶², and 2³¹ ≡ 1, so its high and low 31-bit halves sum to a value
// congruent to it and below 2·(2³¹−1): one conditional subtraction is exact.
func mulMod(a, b uint64) uint64 {
	t := a * b
	r := t&modulus + t>>31
	if r >= modulus {
		r -= modulus
	}
	return r
}

// Int63 returns a non-negative pseudo-random 63-bit integer as an int64.
func (s *Source) Int63() int64 {
	if s.lazy > 0 {
		return int64(s.lazyUint64() & rngMask)
	}
	return int64(s.next() & rngMask)
}

// Uint64 returns a pseudo-random 64-bit value as a uint64.
func (s *Source) Uint64() uint64 {
	if s.lazy > 0 {
		return s.lazyUint64()
	}
	return s.next()
}

// next is math/rand's step, once every word is set. Int63 and Uint64 each
// test lazy themselves so that next inlines into both.
func (s *Source) next() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// lazyUint64 is a draw while lazy > 0. Draw d reads the tap word rngLen-d
// and the feed word rngLen-rngTap-d and writes the feed word, so up to
// draw rngTap no draw reads a word an earlier one wrote: each computes
// both of its words from the seed and stores them. The draw that takes
// lazy to 0 first computes, in one pass, every word the lazy draws left
// unset (below the last feed word, and from rngLen-rngTap up to the last
// tap word), and then steps as usual.
func (s *Source) lazyUint64() uint64 {
	s.lazy--
	if s.lazy == 0 {
		s.fill(0, s.feed)
		s.fill(rngLen-rngTap, s.tap)
		return s.next()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	t := s.word(s.tap)
	x := s.word(s.feed) + t
	s.vec[s.tap], s.vec[s.feed] = t, x
	return uint64(x)
}

// fill sets words [lo, hi) as math/rand seeds them.
func (s *Source) fill(lo, hi int) {
	x, v, p, c := s.seed, s.vec[lo:hi], pows[lo:hi], cooked[lo:hi]
	for i := range v {
		v[i] = chainWord(x, &p[i]) ^ c[i]
	}
}

// initTables fills the power table and recovers the cooked table.
func initTables() {
	x := uint64(1)
	for j := 1; j <= chainSkip; j++ {
		x = mulMod(x, lehmerA)
	}
	for i := range pows {
		for k := range pows[i] {
			x = mulMod(x, lehmerA)
			pows[i][k] = x
		}
	}
	cooked = recoverCooked()
}

// Known words of math/rand's rngCooked; recoverCooked checks its result
// against them.
const (
	cooked0   = -4181792142133755926
	cooked1   = -4576982950128230565
	cooked606 = 4152330101494654406
)

// recoverCooked derives math/rand's rngCooked table from rand.NewSource(1).
// Draw k (k = 1..607) moves tap and feed down by one and stores
// vec[feed] + vec[tap] into vec[feed], and feed visits every word once, so
// the 607 draws, placed at their feed positions, are the whole state. Step
// k is undone by vec[feed] -= vec[tap] at that step's positions (it wrote
// only vec[feed]), so undoing the steps last to first restores the seeded
// state, which is seed 1's chain XOR the table. It needs the power table.
func recoverCooked() [rngLen]int64 {
	src := rand.NewSource(1).(rand.Source64)
	var vec [rngLen]int64
	feed := rngLen - rngTap
	for k := 0; k < rngLen; k++ {
		feed--
		if feed < 0 {
			feed += rngLen
		}
		vec[feed] = int64(src.Uint64())
	}
	// After 607 steps tap and feed are back at 0 and rngLen-rngTap, which
	// are also the positions of step 607.
	tap, feed := 0, rngLen-rngTap
	for k := 0; k < rngLen; k++ {
		vec[feed] -= vec[tap]
		tap, feed = (tap+1)%rngLen, (feed+1)%rngLen
	}
	for i := range vec {
		vec[i] ^= chainWord(1, &pows[i])
	}
	if vec[0] != cooked0 || vec[1] != cooked1 || vec[rngLen-1] != cooked606 {
		panic("randsrc: math/rand's seeding is not the generator this package reproduces")
	}
	return vec
}
