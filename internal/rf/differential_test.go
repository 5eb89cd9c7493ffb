package rf

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"sqlbarber/internal/fanout"
	"sqlbarber/internal/prand"
)

// fuzzDataset draws one random (X, y) training corpus: mixed continuous,
// integer-ish, duplicate-heavy and signed-zero feature columns so stable-tie
// handling, rank ties (-0 == +0) and group-boundary thresholds are
// exercised, plus occasional constant and near-constant targets.
func fuzzDataset(rng *rand.Rand, n, dims int) ([][]float64, []float64) {
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, dims)
		for f := range row {
			switch f % 4 {
			case 0:
				row[f] = rng.Float64()
			case 1:
				row[f] = float64(rng.Intn(5)) // heavy ties
			case 2:
				row[f] = math.Floor(rng.Float64()*100) / 10
			default:
				row[f] = signedZeroColumn[rng.Intn(len(signedZeroColumn))]
			}
		}
		X[i] = row
		switch rng.Intn(4) {
		case 0:
			y[i] = 3*row[0] - row[dims-1]
		case 1:
			y[i] = row[0] * row[0]
		case 2:
			y[i] = 0.1 // constant plateau
		default:
			y[i] = rng.NormFloat64()
		}
	}
	return X, y
}

// TestDifferentialFlatVsReference is the oracle gate of the flat rewrite:
// across fuzzed corpora of assorted shapes, every tree of the flat forest
// must predict exactly (float64 ==) what the naive pointer reference
// predicts, on training rows and on fresh probe points alike, and so must
// the flat batched path. Both trainers must also leave their rng at the same
// state: with bit-equal trees, that makes a BO search driven by either
// engine visit the same observations.
func TestDifferentialFlatVsReference(t *testing.T) {
	shapes := []struct{ n, dims, trees int }{
		{4, 1, 4}, {7, 2, 8}, {25, 3, 8}, {60, 2, 8}, {120, 5, 16}, {300, 4, 8},
	}
	for round := 0; round < 12; round++ {
		for _, sh := range shapes {
			seed := int64(round*100 + sh.n)
			rng := prand.New(seed, 0x666c6174) // "flat"
			X, y := fuzzDataset(rng, sh.n, sh.dims)
			opts := Options{NumTrees: sh.trees, MaxDepth: 2 + round%9, MinLeafSize: 1 + round%3}

			flatRng, refRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			flat := Train(flatRng, X, y, opts)
			ref := ReferenceTrain(refRng, X, y, opts)
			if a, b := flatRng.Int63(), refRng.Int63(); a != b {
				t.Fatalf("n=%d dims=%d round=%d: rng diverged after training: flat next draw %d != reference %d",
					sh.n, sh.dims, round, a, b)
			}
			if flat.NumTrees() != ref.NumTrees() {
				t.Fatalf("n=%d dims=%d round=%d: tree counts %d vs %d",
					sh.n, sh.dims, round, flat.NumTrees(), ref.NumTrees())
			}
			probes := append([][]float64(nil), X...)
			for p := 0; p < 40; p++ {
				probes = append(probes, fuzzPoint(rng, sh.dims))
			}
			means := make([]float64, len(probes))
			stds := make([]float64, len(probes))
			flat.PredictBatch(probes, means, stds)
			for i, x := range probes {
				for tr := 0; tr < flat.NumTrees(); tr++ {
					got, want := flat.PredictTree(tr, x), ref.PredictTree(tr, x)
					if got != want {
						t.Fatalf("n=%d dims=%d round=%d tree=%d x=%v: flat %v != reference %v",
							sh.n, sh.dims, round, tr, x, got, want)
					}
				}
				gm, gs := flat.Predict(x)
				wm, ws := ref.Predict(x)
				if gm != wm || gs != ws {
					t.Fatalf("ensemble diverged at %v: flat (%v,%v) != reference (%v,%v)", x, gm, gs, wm, ws)
				}
				if means[i] != wm || stds[i] != ws {
					t.Fatalf("batch diverged at %v: flat PredictBatch (%v,%v) != reference (%v,%v)", x, means[i], stds[i], wm, ws)
				}
			}
		}
	}
}

// signedZeroColumn is the value pool of the signed-zero column: -0 and +0
// compare equal, so the flat engine must give them one rank and keep them in
// bootstrap order, exactly as the reference's sort.SliceStable(<) does.
var signedZeroColumn = []float64{math.Copysign(0, -1), 0, 0, -1, 0.5}

func fuzzPoint(rng *rand.Rand, dims int) []float64 {
	x := make([]float64, dims)
	for f := range x {
		x[f] = rng.Float64()*12 - 1
	}
	return x
}

// FuzzForestDifferential lets `go test -fuzz` hunt for corpora where the
// flat engine and the pointer oracle disagree (per tree, batched against
// point, or in rng consumption); the seed corpus replays in every normal
// test run.
func FuzzForestDifferential(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(2), uint8(6))
	f.Add(int64(42), uint8(3), uint8(1), uint8(1))
	f.Add(int64(7), uint8(90), uint8(4), uint8(12))
	f.Fuzz(func(t *testing.T, seed int64, n, dims, depth uint8) {
		rows := int(n)%200 + 2
		cols := int(dims)%6 + 1
		rng := prand.New(seed, int64(rows), int64(cols))
		X, y := fuzzDataset(rng, rows, cols)
		opts := Options{NumTrees: 8, MaxDepth: int(depth)%12 + 1}
		flatRng, refRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		flat := Train(flatRng, X, y, opts)
		ref := ReferenceTrain(refRng, X, y, opts)
		if a, b := flatRng.Int63(), refRng.Int63(); a != b {
			t.Fatalf("rng diverged after training: flat next draw %d != reference %d", a, b)
		}
		probes := make([][]float64, 16)
		for p := range probes {
			probes[p] = fuzzPoint(rng, cols)
		}
		means := make([]float64, len(probes))
		stds := make([]float64, len(probes))
		flat.PredictBatch(probes, means, stds)
		for p, x := range probes {
			for tr := 0; tr < flat.NumTrees(); tr++ {
				if got, want := flat.PredictTree(tr, x), ref.PredictTree(tr, x); got != want {
					t.Fatalf("tree %d at %v: flat %v != reference %v", tr, x, got, want)
				}
			}
			if wm, ws := ref.Predict(x); means[p] != wm || stds[p] != ws {
				t.Fatalf("batch at %v: flat PredictBatch (%v,%v) != reference (%v,%v)", x, means[p], stds[p], wm, ws)
			}
		}
	})
}

// speedCorpus draws a deterministic regression corpus for the speed gate:
// unit-cube features (the surrogate's real input domain) and a bumpy
// multi-term target so trees grow to full depth.
func speedCorpus(seed int64, n, dims int) ([][]float64, []float64) {
	rng := prand.New(seed, 0x72666263) // "rfbc"
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, dims)
		for f := range row {
			row[f] = rng.Float64()
		}
		X[i] = row
		y[i] = 3*row[0] - 2*row[1]*row[1] + row[2%dims]*row[(dims-1)%dims] + 0.1*rng.NormFloat64()
	}
	return X, y
}

// BenchmarkForestVsReference is the speed gate of the flat engine against
// the pointer oracle it replaced, on a 3000x6 corpus with 24 trees of depth
// 12 and 4096 probes, best of 3 rounds. At 8 goroutines the flat fit
// (Workers: 8) must be at least 2x the serial reference fit, and flat
// PredictBatch over 8 probe chunks at least 3x the reference's point-at-a-
// time Predict over the same chunks. Both speedups are reported as metrics.
// Correctness of the pair is pinned by TestDifferentialFlatVsReference.
//
//	go test -run '^$' -bench '^BenchmarkForestVsReference$' -benchtime 1x ./internal/rf
func BenchmarkForestVsReference(b *testing.B) {
	const (
		samples    = 3000
		dims       = 6
		probes     = 4096
		rounds     = 3
		goroutines = 8
	)
	opts := Options{NumTrees: 24, MaxDepth: 12}
	X, y := speedCorpus(1, samples, dims)
	probeX, _ := speedCorpus(2, probes, dims)
	flat := Train(rand.New(rand.NewSource(1)), X, y, opts)
	ref := ReferenceTrain(rand.New(rand.NewSource(1)), X, y, opts)
	means := make([]float64, probes)
	stds := make([]float64, probes)
	// predictTime scores the probe set in one chunk per goroutine.
	predictTime := func(predict func(chunk [][]float64, means, stds []float64)) time.Duration {
		start := time.Now()
		_ = fanout.Run(goroutines, goroutines, func(_, w int) error {
			lo, hi := w*probes/goroutines, (w+1)*probes/goroutines
			predict(probeX[lo:hi], means[lo:hi], stds[lo:hi])
			return nil
		})
		return time.Since(start)
	}
	fitOpts := opts
	fitOpts.Workers = goroutines
	var fitSpeedup, predictSpeedup float64
	for range b.N {
		flatFit, refFit := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
		flatPredict, refPredict := flatFit, refFit
		for round := 0; round < rounds; round++ {
			start := time.Now()
			Train(rand.New(rand.NewSource(1)), X, y, fitOpts)
			flatFit = min(flatFit, time.Since(start))
			start = time.Now()
			ReferenceTrain(rand.New(rand.NewSource(1)), X, y, opts)
			refFit = min(refFit, time.Since(start))

			flatPredict = min(flatPredict, predictTime(flat.PredictBatch))
			refPredict = min(refPredict, predictTime(func(chunk [][]float64, m, s []float64) {
				for i, x := range chunk {
					m[i], s[i] = ref.Predict(x)
				}
			}))
		}
		fitSpeedup = float64(refFit) / float64(flatFit)
		predictSpeedup = float64(refPredict) / float64(flatPredict)
	}
	b.ReportMetric(fitSpeedup, "fit_speedup")
	b.ReportMetric(predictSpeedup, "predict_speedup")
	if fitSpeedup < 2 {
		b.Fatalf("flat fit speedup %.2fx at %d goroutines, below the 2x gate", fitSpeedup, goroutines)
	}
	if predictSpeedup < 3 {
		b.Fatalf("batched predict speedup %.2fx at %d goroutines, below the 3x gate", predictSpeedup, goroutines)
	}
}
