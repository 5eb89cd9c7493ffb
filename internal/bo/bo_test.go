package bo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func testSpace() Space {
	return Space{
		{Name: "x", Lo: -5, Hi: 5},
		{Name: "y", Lo: 0, Hi: 100, Integer: true},
	}
}

func TestDenormalizeNormalizeRoundTripProperty(t *testing.T) {
	s := Space{{Name: "a", Lo: 2, Hi: 10}, {Name: "b", Lo: -3, Hi: 3}}
	f := func(u1, u2 float64) bool {
		x := []float64{clamp01(math.Abs(u1)), clamp01(math.Abs(u2))}
		vals := s.Denormalize(x)
		back := s.Normalize(vals)
		for i := range x {
			if math.Abs(back[i]-x[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func clamp01(x float64) float64 {
	x = math.Mod(x, 1)
	if x < 0 {
		x += 1
	}
	return x
}

func TestDenormalizeInteger(t *testing.T) {
	s := testSpace()
	vals := s.Denormalize([]float64{0.5, 0.505})
	if vals[0] != 0 {
		t.Fatalf("continuous midpoint = %v, want 0", vals[0])
	}
	if vals[1] != math.Trunc(vals[1]) {
		t.Fatalf("integer param not rounded: %v", vals[1])
	}
	lo := s.Denormalize([]float64{0, 0})
	hi := s.Denormalize([]float64{1, 1})
	if lo[1] != 0 || hi[1] != 100 {
		t.Fatalf("integer bounds: %v %v", lo[1], hi[1])
	}
}

func TestSpaceSize(t *testing.T) {
	s := testSpace()
	if s.Size() <= 100 {
		t.Fatalf("size %v too small", s.Size())
	}
}

func TestOptimizerConvergesOnQuadratic(t *testing.T) {
	space := Space{{Name: "x", Lo: 0, Hi: 10}, {Name: "y", Lo: 0, Hi: 10}}
	objective := func(v []float64) (float64, bool) {
		return (v[0]-7)*(v[0]-7) + (v[1]-2)*(v[1]-2), true
	}
	rng := rand.New(rand.NewSource(5))
	opt := New(space, rng, nil)
	opt.Run(60, objective)
	best, ok := opt.Best()
	if !ok {
		t.Fatal("no observations")
	}
	if best.Y > 2.0 {
		t.Fatalf("BO best %.3f after 60 evals; not converging toward (7,2)", best.Y)
	}
}

func TestOptimizerBeatsRandomOnAverage(t *testing.T) {
	space := Space{{Name: "x", Lo: 0, Hi: 1}, {Name: "y", Lo: 0, Hi: 1}, {Name: "z", Lo: 0, Hi: 1}}
	target := []float64{0.3, 0.8, 0.1}
	obj := func(v []float64) float64 {
		s := 0.0
		for i := range v {
			d := v[i] - target[i]
			s += d * d
		}
		return s
	}
	budget := 40
	boTotal, rndTotal := 0.0, 0.0
	for trial := 0; trial < 5; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		opt := New(space, rng, nil)
		opt.Run(budget, func(v []float64) (float64, bool) { return obj(v), true })
		b, _ := opt.Best()
		boTotal += b.Y

		rng2 := rand.New(rand.NewSource(int64(trial + 100)))
		bestRnd := math.Inf(1)
		for i := 0; i < budget; i++ {
			v := []float64{rng2.Float64(), rng2.Float64(), rng2.Float64()}
			if y := obj(v); y < bestRnd {
				bestRnd = y
			}
		}
		rndTotal += bestRnd
	}
	if boTotal > rndTotal*1.5 {
		t.Fatalf("BO (%.4f) much worse than random (%.4f) — surrogate is hurting", boTotal, rndTotal)
	}
}

func TestWarmStartSkipsInit(t *testing.T) {
	space := Space{{Name: "x", Lo: 0, Hi: 1}}
	warm := make([]Observation, 10)
	for i := range warm {
		x := float64(i) / 10
		warm[i] = Observation{X: []float64{x}, Y: (x - 0.5) * (x - 0.5)}
	}
	rng := rand.New(rand.NewSource(1))
	opt := New(space, rng, warm)
	if len(opt.init) != 0 {
		t.Fatalf("warm start should cover initialization, %d LHS points pending", len(opt.init))
	}
	// First suggestion should already exploit the warm model near 0.5.
	evals := 0
	opt.Run(10, func(v []float64) (float64, bool) {
		evals++
		return (v[0] - 0.5) * (v[0] - 0.5), true
	})
	best, _ := opt.Best()
	if best.Y > 0.01 {
		t.Fatalf("warm-started best %.4f, want near 0 quickly", best.Y)
	}
}

// TestBestMatchesLinearScan pins the incremental running best against the
// O(obs) linear scan it replaced, across increasing, decreasing, and tie-heavy
// observation sequences (ties must keep the first-observed winner, matching a
// strict-< scan).
func TestBestMatchesLinearScan(t *testing.T) {
	space := Space{{Name: "x", Lo: 0, Hi: 1}}
	sequences := map[string][]float64{
		"increasing": {1, 2, 3, 4, 5},
		"decreasing": {5, 4, 3, 2, 1},
		"ties":       {3, 1, 1, 2, 1, 0.5, 0.5},
		"random":     nil,
	}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 50; i++ {
		sequences["random"] = append(sequences["random"], rng.NormFloat64())
	}
	for name, ys := range sequences {
		opt := New(space, rand.New(rand.NewSource(1)), nil)
		for i, y := range ys {
			opt.Observe([]float64{float64(i)}, y)

			scanIdx := -1
			for j, ob := range opt.obs {
				if scanIdx < 0 || ob.Y < opt.obs[scanIdx].Y {
					scanIdx = j
				}
			}
			want := opt.obs[scanIdx]
			got, ok := opt.Best()
			if !ok {
				t.Fatalf("%s step %d: Best reported no observations", name, i)
			}
			if got.Y != want.Y || got.X[0] != want.X[0] {
				t.Fatalf("%s step %d: incremental best (x=%v y=%v) != scan (x=%v y=%v)",
					name, i, got.X[0], got.Y, want.X[0], want.Y)
			}
		}
	}
	opt := New(space, rand.New(rand.NewSource(1)), nil)
	if _, ok := opt.Best(); ok {
		t.Fatal("Best must report ok=false before any observation")
	}
}

// TestSuggestAllocationFree pins the buffer-reuse satellite: once the
// candidate pool and surrogate are warm, a Suggest call must not allocate in
// the acquisition loop (candidate generation, batch scoring, argmin).
func TestSuggestAllocationFree(t *testing.T) {
	opt := warmOptimizer()
	// No Observe between measured calls, so no refit mid-measurement.
	opt.Suggest()
	allocs := testing.AllocsPerRun(20, func() { opt.Suggest() })
	if allocs != 0 {
		t.Fatalf("Suggest allocates %.1f objects/call, want 0", allocs)
	}
}

// TestSuggestRefitAllocationFree pins the in-place surrogate: in steady
// state a Suggest that refits the forest (forced here by marking it four
// observations stale) allocates nothing either, because the optimizer keeps
// one forest and its training buffers for its whole run.
func TestSuggestRefitAllocationFree(t *testing.T) {
	opt := warmOptimizer()
	refit := func() {
		opt.forestObsLen = len(opt.obs) - 4
		opt.Suggest()
	}
	refit()
	allocs := testing.AllocsPerRun(20, refit)
	if allocs != 0 {
		t.Fatalf("a refitting Suggest allocates %.1f objects/call, want 0", allocs)
	}
}

// warmOptimizer returns an optimizer past its initialization, with a fitted
// surrogate, on a three-dimensional quadratic.
func warmOptimizer() *Optimizer {
	space := Space{{Name: "x", Lo: 0, Hi: 1}, {Name: "y", Lo: 0, Hi: 1}, {Name: "z", Lo: 0, Hi: 1}}
	opt := New(space, rand.New(rand.NewSource(23)), nil)
	opt.Run(12, func(v []float64) (float64, bool) {
		return (v[0]-0.4)*(v[0]-0.4) + v[1]*v[2], true
	})
	return opt
}

// TestIntoVariantsMatchAllocating pins DenormalizeInto/NormalizeInto against
// their allocating wrappers, including reuse of an oversized buffer.
func TestIntoVariantsMatchAllocating(t *testing.T) {
	s := testSpace()
	x := []float64{0.37, 0.81}
	buf := make([]float64, 8)
	got := s.DenormalizeInto(buf, x)
	want := s.Denormalize(x)
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("DenormalizeInto %v != Denormalize %v", got, want)
	}
	back := s.NormalizeInto(buf, want)
	wantBack := s.Normalize(want)
	if back[0] != wantBack[0] || back[1] != wantBack[1] {
		t.Fatalf("NormalizeInto %v != Normalize %v", back, wantBack)
	}
	if allocs := testing.AllocsPerRun(20, func() { s.DenormalizeInto(buf, x) }); allocs != 0 {
		t.Fatalf("DenormalizeInto allocates %.1f objects/call, want 0", allocs)
	}
}

func TestFailedEvaluationsSkipped(t *testing.T) {
	space := Space{{Name: "x", Lo: 0, Hi: 1}}
	rng := rand.New(rand.NewSource(1))
	opt := New(space, rng, nil)
	opt.Run(10, func(v []float64) (float64, bool) { return 0, false })
	if len(opt.obs) != 0 {
		t.Fatal("failed evaluations must not be recorded")
	}
	if _, ok := opt.Best(); ok {
		t.Fatal("Best() must report no observations")
	}
}
