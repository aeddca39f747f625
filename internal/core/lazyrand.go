package core

import "math/rand"

// A lazySource is math/rand's additive lagged-Fibonacci source with an O(1)
// Seed: for every seed its Uint64/Int63 stream is bit-identical to
// rand.NewSource(seed)'s (lazyrand_test.go pins that differentially and by
// fuzzing; math/rand's own seeding survives only as that oracle), but
// seeding stores the seed instead of filling the 607-word register.
//
// Two facts about the stdlib generator make that possible.
//
// The seed loop is a Lehmer chain x ← 48271·x mod (2³¹−1) from which word i
// takes links 21+3i, 22+3i and 23+3i (shifted by 40, 20 and 0 bits, XORed
// with a fixed constant rngCooked[i]). A Lehmer chain jumps ahead — link j
// is x₀·48271ʲ mod M — so any word is three independent Mersenne mulmods
// against a table of powers, with no need to walk the 1,841 links before it.
//
// The generator first touches the register in a fixed order: draw k reads
// vec[334−k] (its feed, k ≤ 334) and vec[607−k] (its tap, which for k ≤ 273
// is a word no earlier draw wrote), and after 334 draws every word has been
// read or written once. So a draw fills the one or two words it is about to
// touch, for the first 334 draws only, and is the stdlib's code after.
//
// An execution that draws thirty numbers therefore computes ~60 words rather
// than 607 — the stdlib Seed was ≈ 11 µs of an ≈ 18 µs wal execution.
type lazySource struct {
	tap, feed int
	// unfilled counts the feed words (vec[0:unfilled]) the current seed has
	// not produced yet; it is 0 from the 334th draw on. Words of vec that a
	// seed has not filled hold a previous seed's state and are never read.
	unfilled int
	seed     uint64 // normalised into [1, 2³¹−2] exactly as rngSource.Seed does
	vec      [rngLen]int64
}

const (
	rngLen   = 607
	rngTap   = 273
	lehmerA  = 48271
	lehmerM  = 1<<31 - 1
	rngFirst = 21 // the Lehmer link behind word 0's top bits
)

// rngWord holds what word i of a freshly seeded register is made of: the
// three Lehmer multipliers 48271^(21+3i+j) mod M, and the stdlib's
// rngCooked[i].
type rngWord struct {
	cooked     int64
	p0, p1, p2 uint32
}

var rngWords = deriveRngWords()

// mulmod returns a·b mod 2³¹−1 for a, b < 2³¹. 2³¹ ≡ 1 (mod M), so the
// high and low 31-bit halves of the product simply add; two folds bring the
// 62-bit product under 2³¹ + 1 and one conditional subtract finishes.
func mulmod(a, b uint64) uint64 {
	p := a * b
	p = p&lehmerM + p>>31
	p = p&lehmerM + p>>31
	if p >= lehmerM {
		p -= lehmerM
	}
	return p
}

// fresh returns word i of the register rngSource.Seed(seed) would build.
func (w *rngWord) fresh(seed uint64) int64 {
	return int64(mulmod(seed, uint64(w.p0))<<40^
		mulmod(seed, uint64(w.p1))<<20^
		mulmod(seed, uint64(w.p2))) ^ w.cooked
}

// deriveRngWords builds the power table and recovers the unexported
// rngCooked from the stdlib itself, so math/rand stays the single source of
// truth for its 607 constants. With x_k the k-th output of
// rand.NewSource(1) and v the register that seed built, the first-touch
// order above gives
//
//	x_k = v[334−k] + v[607−k]    k ∈ 1..273   (both words fresh)
//	x_k = v[334−k] + x_{k−273}   k ∈ 274..334 (tap already rewritten)
//	x_k = v[941−k] + x_{k−273}   k ∈ 335..607 (feed wrapped into the tap words)
//
// which solves for v back to front, and cooked[i] = v[i] ^ (the Lehmer part
// of word i for seed 1).
func deriveRngWords() (words [rngLen]rngWord) {
	p := uint64(1)
	for j := 0; j < rngFirst; j++ {
		p = mulmod(p, lehmerA)
	}
	for i := range words {
		w := &words[i]
		w.p0 = uint32(p)
		w.p1 = uint32(mulmod(p, lehmerA))
		w.p2 = uint32(mulmod(uint64(w.p1), lehmerA))
		p = mulmod(uint64(w.p2), lehmerA)
	}

	src := rand.NewSource(1).(rand.Source64)
	var x [rngLen + 1]int64
	for k := 1; k <= rngLen; k++ {
		x[k] = int64(src.Uint64())
	}
	var v [rngLen]int64
	for k := rngTap + 1; k <= rngLen-rngTap; k++ {
		v[rngLen-rngTap-k] = x[k] - x[k-rngTap]
	}
	for k := rngLen - rngTap + 1; k <= rngLen; k++ {
		v[2*rngLen-rngTap-k] = x[k] - x[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		v[rngLen-rngTap-k] = x[k] - v[rngLen-k]
	}
	for i := range words {
		words[i].cooked = v[i] ^ words[i].fresh(1) // cooked is still 0 here
	}
	return words
}

// Seed is rngSource.Seed without the fill: same seed normalisation, same
// tap and feed, and the register marked wholly unfilled.
func (s *lazySource) Seed(seed int64) {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed = uint64(seed)
	s.tap = 0
	s.feed = rngLen - rngTap
	s.unfilled = rngLen - rngTap
}

// Int63 is rngSource's generator step plus the fill. Every rand.Rand draw
// except Uint64 lands here, so the step lives in this method and the fill
// out of line: from the 335th draw on, a draw is the stdlib's code and one
// predictable branch.
func (s *lazySource) Int63() int64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.unfilled > 0 {
		s.fill()
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x & (1<<63 - 1)
}

// Uint64 is the same draw with its top bit, read back from where Int63
// stored it.
func (s *lazySource) Uint64() uint64 {
	s.Int63()
	return uint64(s.vec[s.feed])
}

// fill produces the words one of the first 334 draws is about to touch:
// feed (== unfilled-1) always, and tap while it is still above the feed
// words, which is the first 273 draws.
func (s *lazySource) fill() {
	s.unfilled--
	s.vec[s.feed] = rngWords[s.feed].fresh(s.seed)
	if s.tap >= rngLen-rngTap {
		s.vec[s.tap] = rngWords[s.tap].fresh(s.seed)
	}
}

// NewRand returns a generator whose stream after Seed(seed) is bit-identical
// to rand.New(rand.NewSource(seed))'s, and whose Seed is O(1) where
// math/rand's costs ≈ 11 µs — the generator every built-in scheduler draws
// from, for registered schedulers that reseed in Prepare. Until the first
// Seed it behaves as if seeded with 1.
func NewRand() *rand.Rand {
	s := &lazySource{}
	s.Seed(1)
	return rand.New(s)
}
