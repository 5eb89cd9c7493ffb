package rf

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"sqlbarber/internal/prand"
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

// TestTrainByteIdenticalAcrossWorkers pins that Options.Workers has no
// effect: trees fit serially, so identical rng state must yield identical
// forest bytes, and an identical rng state after the fit, at every worker
// count.
func TestTrainByteIdenticalAcrossWorkers(t *testing.T) {
	build := func(workers int) (*Forest, int64) {
		rng := rand.New(rand.NewSource(11))
		var X [][]float64
		var y []float64
		for i := 0; i < 250; i++ {
			x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
			X = append(X, x)
			y = append(y, x[0]*x[1]+math.Sin(x[2]))
		}
		f := Train(rng, X, y, Options{NumTrees: 16, Workers: workers})
		return f, rng.Int63()
	}
	base, baseNext := build(1)
	for _, w := range []int{0, 2, 8} {
		got, next := build(w)
		if !reflect.DeepEqual(base, got) || next != baseNext {
			t.Fatalf("Workers=%d forest or rng state differs from Workers=1", w)
		}
	}
}

// TestFitInPlaceMatchesTrain refits one forest over corpora of growing and
// shrinking size, width and depth: each in-place fit must equal a fresh
// Train from the same rng state, node for node, so nothing of an earlier fit
// survives in the reused slices.
func TestFitInPlaceMatchesTrain(t *testing.T) {
	var f Forest
	shapes := []struct{ n, dims, trees, depth int }{
		{50, 3, 8, 10}, {400, 6, 24, 12}, {7, 1, 4, 3}, {0, 2, 8, 10}, {120, 2, 16, 10},
	}
	for k, sh := range shapes {
		X, y := fuzzDataset(rand.New(rand.NewSource(int64(30+k))), sh.n, sh.dims)
		if sh.n == 0 {
			X, y = nil, nil
		}
		opts := Options{NumTrees: sh.trees, MaxDepth: sh.depth}
		f.Fit(rand.New(rand.NewSource(int64(40+k))), X, y, opts)
		want := Train(rand.New(rand.NewSource(int64(40+k))), X, y, opts)
		if !slices.Equal(f.roots, want.roots) || !slices.Equal(f.nodes, want.nodes) {
			t.Fatalf("shape %d (%+v): in-place fit differs from a fresh Train", k, sh)
		}
	}
}

// TestFitAllocationFree pins the in-place refit: once a forest and the
// pooled builder have grown to a corpus, refitting that forest allocates
// nothing, at the shape the BO loop fits (128 observations x 4 dims, 16
// trees). The minimum over several runs is taken, like
// TestTrainAllocationCeiling's.
func TestFitAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	X := make([][]float64, 128)
	y := make([]float64, 128)
	for i := range X {
		X[i] = []float64{rng.Float64(), rng.Float64(), float64(rng.Intn(5)), rng.Float64()}
		y[i] = 3*X[i][0] + rng.NormFloat64()
	}
	var f Forest
	fit := func() {
		rng.Seed(1)
		f.Fit(rng, X, y, Options{})
	}
	fit()
	allocs := math.Inf(1)
	for i := 0; i < 10; i++ {
		allocs = min(allocs, testing.AllocsPerRun(1, fit))
	}
	if allocs != 0 {
		t.Fatalf("warm in-place Fit allocated %.0f times, want 0", allocs)
	}
}

// TestIntnMatchesMathRand pins the builder's feature draw to math/rand's
// Intn over the same seeded source, draw for draw, at powers of two (the
// mask path) and at other bounds (the rejection path).
func TestIntnMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{1, 42, 1 << 40} {
		var b builder
		b.src.Seed(seed)
		want := rand.New(prand.NewSource(seed))
		for k := 0; k < 5000; k++ {
			n := 1 + k%37
			if k%5 == 0 {
				n = 1<<30 + k // large bounds reject often
			}
			if got, w := b.intn(n), want.Intn(n); got != w {
				t.Fatalf("seed %d draw %d: intn(%d) = %d, math/rand Intn = %d", seed, k, n, got, w)
			}
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

// TestPresortMatchesSliceStable pins the per-tree gather and the counting
// presort: yb and xb must hold each bootstrap position's target and features,
// and every feature block must be the permutation of positions the stable
// comparison sort gives, on bootstraps with repeats over duplicate-heavy and
// signed-zero columns. With no features, the one block is the identity.
func TestPresortMatchesSliceStable(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64, 200} {
		for _, dims := range []int{4, 0} {
			rng := rand.New(rand.NewSource(int64(n)))
			X, y := fuzzDataset(rng, n, max(dims, 1))
			for i := range X {
				X[i] = X[i][:dims]
			}
			b := new(builder)
			b.reset(new(Forest), X, y, Options{}.withDefaults())
			for p := range b.boot {
				b.boot[p] = int32(rng.Intn(n))
			}
			b.presort()
			for p, i := range b.boot {
				if b.yb[p] != y[i] {
					t.Fatalf("n=%d: yb[%d] = %v, want y[%d] = %v", n, p, b.yb[p], i, y[i])
				}
				for f := 0; f < dims; f++ {
					if got := b.xb[f*n+p]; math.Float64bits(got) != math.Float64bits(X[i][f]) {
						t.Fatalf("n=%d: xb[%d][%d] = %v, want X[%d][%d] = %v", n, f, p, got, i, f, X[i][f])
					}
				}
			}
			identity := make([]int32, n)
			for p := range identity {
				identity[p] = int32(p)
			}
			if dims == 0 {
				if !slices.Equal(b.block(0), identity) {
					t.Fatalf("n=%d, no features: block %v is not the identity", n, b.block(0))
				}
				continue
			}
			for f := 0; f < dims; f++ {
				want := slices.Clone(identity)
				sort.SliceStable(want, func(a, c int) bool { return X[b.boot[want[a]]][f] < X[b.boot[want[c]]][f] })
				if got := b.block(f); !slices.Equal(got, want) {
					t.Fatalf("n=%d feature %d: counting presort %v != sort.SliceStable %v", n, f, got, want)
				}
			}
		}
	}
}

// TestTrainAllocationCeiling pins the cost of a warm refit at the shape the
// BO loop fits (128 observations x 4 dims, 16 trees): with the pooled
// builder, only the returned Forest and its two slices allocate (measured
// 3; the ceiling leaves ~20% headroom). The minimum over several runs is
// taken so a concurrent test holding the pooled builder cannot fail it.
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
