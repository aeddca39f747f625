package core

import (
	"math"
	"math/rand"
	"testing"
)

// The lazySource contract is "the stream equals math/rand's", so every test
// here is differential against rand.New(rand.NewSource(seed)).

// lazyDrawCounts brackets every boundary of the lazy fill: the tap words run
// out after 273 draws, the feed words after 334, the register wraps at 607.
var lazyDrawCounts = []int{0, 1, 50, 272, 273, 274, 333, 334, 335, 606, 607, 608, 3000}

// lazyEdgeSeeds are the seeds Seed's normalisation treats specially: 0 and
// every multiple of 2³¹−1 become 89482311, negatives are lifted by 2³¹−1.
var lazyEdgeSeeds = []int64{
	0, 1, -1, 89482311, lehmerM, lehmerM + 1, lehmerM - 1, -lehmerM,
	2 * lehmerM, 3 * lehmerM, -7 * lehmerM, 1 << 32 * lehmerM,
	math.MinInt64, math.MaxInt64,
}

func lazyTestSeeds() []int64 {
	seeds := append([]int64(nil), lazyEdgeSeeds...)
	for i := uint64(1); i <= 400; i++ {
		seeds = append(seeds, int64(i*0x9E3779B97F4A7C15)) // spread over all 64 bits
	}
	return seeds
}

// matchDraws fails t unless the next n draws of got equal the first n draws
// of a fresh math/rand generator seeded with seed. Draws rotate through
// Uint64, Int63 and Intn, the three shapes the schedulers and rand.Rand's
// other methods are built from (Intn's bound varies so both its power-of-two
// mask and its rejection loop run).
func matchDraws(t *testing.T, got *rand.Rand, seed int64, n int) {
	t.Helper()
	want := rand.New(rand.NewSource(seed))
	for k := 0; k < n; k++ {
		var g, w uint64
		switch k % 3 {
		case 0:
			g, w = got.Uint64(), want.Uint64()
		case 1:
			g, w = uint64(got.Int63()), uint64(want.Int63())
		default:
			bound := k%1000 + 1
			g, w = uint64(got.Intn(bound)), uint64(want.Intn(bound))
		}
		if g != w {
			t.Fatalf("seed %d, draw %d of %d: got %#x, math/rand gives %#x", seed, k+1, n, g, w)
		}
	}
}

func TestLazySourceMatchesMathRand(t *testing.T) {
	for _, seed := range lazyTestSeeds() {
		for _, n := range lazyDrawCounts {
			rng := NewRand()
			rng.Seed(seed)
			matchDraws(t, rng, seed, n)
		}
	}
}

// TestLazySourceReseedLeavesNoStaleWords: a partially filled register is
// state math/rand never had. Whatever point of the fill Seed(a)'s draws
// stopped at, Seed(b) must give b's stream — past the 607-word wrap, so
// every word a left behind gets its chance to leak.
func TestLazySourceReseedLeavesNoStaleWords(t *testing.T) {
	seeds := lazyTestSeeds()
	for i, a := range seeds {
		b := seeds[(i+1)%len(seeds)]
		for _, n := range lazyDrawCounts {
			rng := NewRand()
			rng.Seed(a)
			for k := 0; k < n; k++ {
				rng.Uint64()
			}
			rng.Seed(b)
			matchDraws(t, rng, b, 700)
		}
	}
}

// TestNewRandUnseededIsSeedOne pins NewRand's documented starting state.
func TestNewRandUnseededIsSeedOne(t *testing.T) {
	matchDraws(t, NewRand(), 1, 700)
}

func FuzzLazySourceMatchesMathRand(f *testing.F) {
	for _, seed := range lazyEdgeSeeds {
		for _, n := range lazyDrawCounts {
			f.Add(seed, uint16(n))
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		rng := NewRand()
		rng.Seed(seed)
		matchDraws(t, rng, seed, int(draws))
		// The same generator, reseeded from wherever those draws left it.
		next := seed ^ int64(draws)<<31
		rng.Seed(next)
		matchDraws(t, rng, next, 700)
	})
}
