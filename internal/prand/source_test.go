package prand

import (
	"math"
	"math/rand"
	"testing"
)

// edgeSeeds covers math/rand's seed reduction: zero (remapped to 89482311),
// negatives, multiples of 2³¹−1 (which also reduce to zero), the remap
// target itself, the int64 extremes, and real Mix outputs.
var edgeSeeds = []int64{
	0, 1, -1, -2, 89482311, int32max, -int32max, 2 * int32max, int32max - 1, int32max + 1,
	1 << 31, math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
	Mix(1), Mix(7, StageSearch, 3, 9), Mix(42, StageProfile, HashString("SELECT 1")),
}

// drawAll walks r through every *rand.Rand method the pipeline uses, enough
// rounds to wrap the 607-word state twice, and appends each result.
func drawAll(r *rand.Rand, out []float64) []float64 {
	perm := make([]int, 9)
	for round := 0; round < 2*rngLen/6+1; round++ {
		out = append(out,
			float64(r.Int63()),
			float64(r.Uint64()>>11),
			float64(r.Intn(round+1)),
			float64(r.Intn(1<<40)),
			r.Float64(),
			r.NormFloat64(),
		)
		if round%50 == 0 {
			for _, v := range r.Perm(17) {
				out = append(out, float64(v))
			}
			for i := range perm {
				perm[i] = i
			}
			r.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			for _, v := range perm {
				out = append(out, float64(v))
			}
		}
	}
	return out
}

func assertSameStream(t *testing.T, seed int64, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("seed %d: %d draws vs %d", seed, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("seed %d: draw %d = %v, math/rand gives %v", seed, i, got[i], want[i])
		}
	}
}

func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range edgeSeeds {
		want := drawAll(rand.New(rand.NewSource(seed)), nil)
		got := drawAll(rand.New(NewSource(seed)), nil)
		if len(want) < 2*rngLen {
			t.Fatalf("only %d draws; need at least two state wraps", len(want))
		}
		assertSameStream(t, seed, got, want)
	}
}

// TestSourceReseedLeaksNoState reseeds one source across every edge seed,
// in both directions, so a state word seeded (or advanced) under one seed
// can never be read under the next.
func TestSourceReseedLeaksNoState(t *testing.T) {
	src := NewSource(0)
	r := rand.New(src)
	for pass := 0; pass < 2; pass++ {
		for k := range edgeSeeds {
			seed := edgeSeeds[k]
			if pass == 1 {
				seed = edgeSeeds[len(edgeSeeds)-1-k]
			}
			r.Seed(seed)
			want := drawAll(rand.New(rand.NewSource(seed)), nil)
			assertSameStream(t, seed, drawAll(r, nil), want)
		}
	}
	// A short draw then a reseed: only part of the state was touched.
	for _, seed := range edgeSeeds {
		src.Seed(seed + 1)
		for i := 0; i < 5; i++ {
			src.Uint64()
		}
		src.Seed(seed)
		ref := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < 3*rngLen; i++ {
			if got, want := src.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d draw %d after partial reseed: %d != %d", seed, i, got, want)
			}
		}
	}
}

func TestNewMatchesMathRand(t *testing.T) {
	want := drawAll(rand.New(rand.NewSource(Mix(3, StageGenerate, 5))), nil)
	assertSameStream(t, Mix(3, StageGenerate, 5), drawAll(New(3, StageGenerate, 5), nil), want)
}

func TestSourceReseedAllocationFree(t *testing.T) {
	src := NewSource(1)
	r := rand.New(src)
	seed := int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		seed++
		src.Seed(Mix(seed))
		for i := 0; i < 200; i++ {
			r.Intn(1000)
		}
	})
	if allocs != 0 {
		t.Fatalf("reseed + 200 Intn draws allocated %.1f times, want 0", allocs)
	}
}

// FuzzSourceMatchesMathRand checks arbitrary seeds and stream lengths
// against math/rand through the raw Source64 interface.
func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range edgeSeeds {
		f.Add(seed, uint16(2*rngLen))
	}
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		src := NewSource(seed ^ 0x5a5a)
		src.Uint64() // dirty state from another seed first
		src.Seed(seed)
		ref := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < int(draws)%(4*rngLen); i++ {
			if i%2 == 0 {
				if got, want := src.Uint64(), ref.Uint64(); got != want {
					t.Fatalf("seed %d draw %d: Uint64 %d != %d", seed, i, got, want)
				}
			} else if got, want := src.Int63(), ref.Int63(); got != want {
				t.Fatalf("seed %d draw %d: Int63 %d != %d", seed, i, got, want)
			}
		}
	})
}
