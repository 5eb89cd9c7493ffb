package rf

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
)

func TestForestLearnsLinearFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var X [][]float64
	var y []float64
	for i := 0; i < 400; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		X = append(X, x)
		y = append(y, 3*x[0]+x[1])
	}
	f := Train(rng, X, y, Options{})
	mse := 0.0
	for i := 0; i < 100; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		pred, _ := f.Predict(x)
		d := pred - (3*x[0] + x[1])
		mse += d * d
	}
	mse /= 100
	if mse > 0.25 {
		t.Fatalf("forest MSE %.3f too high for a linear target", mse)
	}
}

func TestForestLearnsStepFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var X [][]float64
	var y []float64
	for i := 0; i < 300; i++ {
		x := rng.Float64()
		X = append(X, []float64{x})
		if x > 0.5 {
			y = append(y, 10)
		} else {
			y = append(y, 0)
		}
	}
	f := Train(rng, X, y, Options{})
	lo, _ := f.Predict([]float64{0.2})
	hi, _ := f.Predict([]float64{0.8})
	if lo > 2 || hi < 8 {
		t.Fatalf("step not learned: f(0.2)=%.2f f(0.8)=%.2f", lo, hi)
	}
}

func TestForestUncertaintyHigherOffData(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var X [][]float64
	var y []float64
	// Train only on the left half with a noisy target.
	for i := 0; i < 200; i++ {
		x := rng.Float64() * 0.5
		X = append(X, []float64{x})
		y = append(y, x+rng.NormFloat64()*0.2)
	}
	f := Train(rng, X, y, Options{})
	_, stdIn := f.Predict([]float64{0.25})
	mean, _ := f.Predict([]float64{0.25})
	if math.IsNaN(mean) || math.IsNaN(stdIn) {
		t.Fatal("NaN prediction")
	}
	if stdIn < 0 {
		t.Fatal("negative std")
	}
}

func TestEmptyForest(t *testing.T) {
	f := Train(rand.New(rand.NewSource(1)), nil, nil, Options{})
	if f.NumTrees() != 0 {
		t.Fatal("empty training set must yield empty forest")
	}
	mean, std := f.Predict([]float64{0.5})
	if mean != 0 || std != 1 {
		t.Fatalf("empty forest prediction = %v/%v, want 0/1 prior", mean, std)
	}
}

func TestForestDeterminism(t *testing.T) {
	build := func() *Forest {
		rng := rand.New(rand.NewSource(7))
		var X [][]float64
		var y []float64
		for i := 0; i < 100; i++ {
			x := rng.Float64()
			X = append(X, []float64{x})
			y = append(y, x*x)
		}
		return Train(rng, X, y, Options{NumTrees: 8})
	}
	a, b := build(), build()
	for _, x := range []float64{0.1, 0.5, 0.9} {
		ma, _ := a.Predict([]float64{x})
		mb, _ := b.Predict([]float64{x})
		if ma != mb {
			t.Fatalf("same seed, different predictions at %v: %v vs %v", x, ma, mb)
		}
	}
}

func TestConstantTargetIsPure(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	X := [][]float64{{0.1}, {0.2}, {0.3}, {0.4}}
	y := []float64{5, 5, 5, 5}
	f := Train(rng, X, y, Options{})
	mean, std := f.Predict([]float64{0.25})
	if mean != 5 || std != 0 {
		t.Fatalf("constant target: mean=%v std=%v", mean, std)
	}
}

// TestSplitScoreClampsNegativeVariance pins the clamp on floating-point-
// negative child variances: Σy²/n - mean² can land a few ulps below zero on
// near-constant sides, and the weighted score must never go negative.
func TestSplitScoreClampsNegativeVariance(t *testing.T) {
	// A constant-y left side whose sum-of-squares cancellation goes negative:
	// y = 0.1 repeated; 3*(0.01)/3 - (0.3/3)² = -1.7e-18 in float64.
	v := 0.1
	ls, lss := 3*v, 3*v*v
	if raw := lss/3 - (ls/3)*(ls/3); raw >= 0 {
		t.Fatalf("fixture did not produce a negative raw variance: %g", raw)
	}
	if s := splitScore(ls, lss, 3, 50, 2500, 1); s < 0 {
		t.Fatalf("splitScore = %g, want clamped >= 0", s)
	}
	// End to end: a constant-y plateau plus one outlier must train to finite,
	// non-negative uncertainty everywhere.
	var X [][]float64
	var y []float64
	for i := 0; i < 40; i++ {
		X = append(X, []float64{float64(i)})
		y = append(y, v)
	}
	X = append(X, []float64{40.5})
	y = append(y, 50)
	f := Train(rand.New(rand.NewSource(9)), X, y, Options{MinLeafSize: 1})
	for _, probe := range []float64{0, 10.5, 39, 41} {
		mean, std := f.Predict([]float64{probe})
		if math.IsNaN(mean) || math.IsNaN(std) || std < 0 {
			t.Fatalf("probe %v: mean=%v std=%v", probe, mean, std)
		}
	}
}

// TestTrainByteIdenticalAcrossWorkers pins the deterministic-parallel-fit
// contract: identical rng state must yield identical forest bytes at worker
// counts 1, 2, and 8, because every shared draw happens before the fan-out.
func TestTrainByteIdenticalAcrossWorkers(t *testing.T) {
	build := func(workers int) *Forest {
		rng := rand.New(rand.NewSource(11))
		var X [][]float64
		var y []float64
		for i := 0; i < 250; i++ {
			x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
			X = append(X, x)
			y = append(y, x[0]*x[1]+math.Sin(x[2]))
		}
		return Train(rng, X, y, Options{NumTrees: 16, Workers: workers})
	}
	base := build(1)
	for _, w := range []int{2, 8} {
		got := build(w)
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("Workers=%d forest differs from Workers=1", w)
		}
	}
}

// TestPredictBatchMatchesPredict pins batched traversal against the
// point-at-a-time path bit for bit, including the empty-forest prior.
func TestPredictBatchMatchesPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var X [][]float64
	var y []float64
	for i := 0; i < 300; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		X = append(X, x)
		y = append(y, 2*x[0]-x[1]*x[1])
	}
	f := Train(rng, X, y, Options{})
	probes := make([][]float64, 64)
	for i := range probes {
		probes[i] = []float64{rng.Float64() * 1.5, rng.Float64() * 1.5}
	}
	means := make([]float64, len(probes))
	stds := make([]float64, len(probes))
	f.PredictBatch(probes, means, stds)
	for i, x := range probes {
		m, s := f.Predict(x)
		if means[i] != m || stds[i] != s {
			t.Fatalf("probe %d: batch (%v,%v) != point (%v,%v)", i, means[i], stds[i], m, s)
		}
	}
	empty := &Forest{}
	empty.PredictBatch(probes[:2], means, stds)
	if means[0] != 0 || stds[0] != 1 || means[1] != 0 || stds[1] != 1 {
		t.Fatalf("empty-forest batch prior = (%v,%v),(%v,%v), want (0,1)", means[0], stds[0], means[1], stds[1])
	}
}

// TestConcurrentTrainAndPredictBatch is the -race hammer: 8 goroutines mix
// fresh Train calls with PredictBatch on a shared trained forest and shared
// (X, y) inputs. Forests are read-only after Train and training state is
// builder-private, so nothing here may race.
func TestConcurrentTrainAndPredictBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var X [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		X = append(X, x)
		y = append(y, x[0]+2*x[1]*x[2])
	}
	shared := Train(rand.New(rand.NewSource(18)), X, y, Options{NumTrees: 8, Workers: 4})
	want := make([]float64, len(X))
	wantStd := make([]float64, len(X))
	shared.PredictBatch(X, want, wantStd)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			means := make([]float64, len(X))
			stds := make([]float64, len(X))
			for round := 0; round < 10; round++ {
				if (g+round)%2 == 0 {
					f := Train(rand.New(rand.NewSource(18)), X, y, Options{NumTrees: 8, Workers: 1 + g%3})
					f.PredictBatch(X, means, stds)
				} else {
					shared.PredictBatch(X, means, stds)
				}
				for i := range means {
					if means[i] != want[i] || stds[i] != wantStd[i] {
						t.Errorf("goroutine %d round %d: prediction %d diverged", g, round, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPresortMatchesSliceStable pins the counting presort to the permutation
// the stable comparison sort gives, on bootstraps with repeats over
// duplicate-heavy and signed-zero columns.
func TestPresortMatchesSliceStable(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64, 200} {
		rng := rand.New(rand.NewSource(int64(n)))
		X, y := fuzzDataset(rng, n, 4)
		tr := new(trainer)
		tr.reset(X, n, 4, 1, 1)
		b := tr.builders[0]
		b.reset(tr, y, n, 4, Options{}.withDefaults())
		boot := make([]int32, n)
		for i := range boot {
			boot[i] = int32(rng.Intn(n))
		}
		b.presort(boot)
		if !slices.Equal(b.block(-1), boot) {
			t.Fatalf("n=%d: row block %v != bootstrap %v", n, b.block(-1), boot)
		}
		for f := 0; f < 4; f++ {
			want := slices.Clone(boot)
			sort.SliceStable(want, func(a, c int) bool { return X[want[a]][f] < X[want[c]][f] })
			if got := b.block(f); !slices.Equal(got, want) {
				t.Fatalf("n=%d feature %d: counting presort %v != sort.SliceStable %v", n, f, got, want)
			}
		}
	}
}

// TestTrainAllocationCeiling pins the cost of a warm refit at the shape the
// BO loop fits (128 observations x 4 dims, 16 trees, one worker): with
// pooled builders, only the returned Forest and its two slices allocate
// (measured 3; the ceiling leaves ~20% headroom). The minimum over
// several runs is taken because sync.Pool may drop scratch at a GC, and
// under the race detector it drops Puts at random.
func TestTrainAllocationCeiling(t *testing.T) {
	const ceiling = 4
	rng := rand.New(rand.NewSource(5))
	X := make([][]float64, 128)
	y := make([]float64, 128)
	for i := range X {
		X[i] = []float64{rng.Float64(), rng.Float64(), float64(rng.Intn(5)), rng.Float64()}
		y[i] = 3*X[i][0] + rng.NormFloat64()
	}
	opts := Options{NumTrees: 16, Workers: 1}
	fit := func() {
		rng.Seed(1)
		Train(rng, X, y, opts)
	}
	allocs := math.Inf(1)
	for i := 0; i < 10; i++ {
		allocs = min(allocs, testing.AllocsPerRun(1, fit))
	}
	if allocs > ceiling {
		t.Fatalf("warm Train allocated %.0f times, ceiling %d", allocs, ceiling)
	}
}

// TestPooledScratchLeaksNothing refits a small corpus after a larger one
// (wider, more rows, more trees, more workers) has grown the pooled
// scratch: the small forest must come out byte-identical to its first fit.
func TestPooledScratchLeaksNothing(t *testing.T) {
	small := func() *Forest {
		X, y := fuzzDataset(rand.New(rand.NewSource(21)), 30, 2)
		return Train(rand.New(rand.NewSource(22)), X, y, Options{NumTrees: 4, Workers: 1})
	}
	first := small()
	X, y := fuzzDataset(rand.New(rand.NewSource(23)), 400, 6)
	Train(rand.New(rand.NewSource(24)), X, y, Options{NumTrees: 24, Workers: 4})
	if again := small(); !reflect.DeepEqual(first, again) {
		t.Fatal("refit after a larger Train differs from the first fit")
	}
}
