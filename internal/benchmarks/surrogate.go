package benchmarks

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"sqlbarber/internal/bo"
	"sqlbarber/internal/fanout"
	"sqlbarber/internal/prand"
	"sqlbarber/internal/rf"
)

// SurrogatePoint is one (goroutines, fit + predict timings) row of the
// surrogate experiment: the flat forest engine against the pointer-based
// reference it replaced.
type SurrogatePoint struct {
	Goroutines        int     `json:"goroutines"`
	FlatFitNS         int64   `json:"flat_fit_ns"`
	RefFitNS          int64   `json:"reference_fit_ns"`
	FitSpeedup        float64 `json:"fit_speedup"`
	FlatPredictPerSec float64 `json:"flat_predict_probes_per_sec"`
	RefPredictPerSec  float64 `json:"reference_predict_probes_per_sec"`
	PredictSpeedup    float64 `json:"predict_speedup"`
}

// SurrogateFitCost is the absolute cost of one refit at the shape the BO
// loop actually fits — a few dozen to a few hundred observations, a handful
// of dimensions, one worker — for both engines. The large corpus of the
// speedup points amortizes per-Train and per-tree set-up (scratch, stream
// seeding, presort) that dominates at this shape.
type SurrogateFitCost struct {
	Samples          int     `json:"samples"`
	Dims             int     `json:"dims"`
	Trees            int     `json:"trees"`
	Workers          int     `json:"workers"`
	FlatNSPerFit     int64   `json:"flat_ns_per_fit"`
	FlatAllocsPerFit float64 `json:"flat_allocs_per_fit"`
	RefNSPerFit      int64   `json:"reference_ns_per_fit"`
	RefAllocsPerFit  float64 `json:"reference_allocs_per_fit"`
}

// SurrogateBenchResult is the JSON artifact -exp surrogate writes
// (BENCH_surrogate.json).
type SurrogateBenchResult struct {
	Samples    int              `json:"samples"`
	Dims       int              `json:"dims"`
	Trees      int              `json:"trees"`
	Probes     int              `json:"probes"`
	SearchHash string           `json:"search_hash"`
	Points     []SurrogatePoint `json:"points"`
	BOFit      SurrogateFitCost `json:"bo_fit"`
}

// surrogateData draws a deterministic synthetic regression corpus: unit-cube
// features (the surrogate's real input domain) and a bumpy multi-term target
// so trees grow to full depth.
func surrogateData(seed int64, n, dims int) ([][]float64, []float64) {
	rng := prand.New(seed, prand.StageSearch, 0x72666263) // "rfbc"
	X := make([][]float64, n)
	y := make([]float64, n)
	flat := make([]float64, n*dims)
	for i := range X {
		row := flat[i*dims : (i+1)*dims]
		for f := range row {
			row[f] = rng.Float64()
		}
		X[i] = row
		y[i] = 3*row[0] - 2*row[1]*row[1] + row[2%dims]*row[(dims-1)%dims] + 0.1*rng.NormFloat64()
	}
	return X, y
}

// surrogateSearchHash runs one fixed Bayesian-optimization search with the
// given surrogate trainer and fingerprints the full observation sequence.
// Both trainers must consume the optimizer rng draw for draw identically, so
// the flat engine and the pointer reference must produce the same hash.
func surrogateSearchHash(seed int64, train bo.TrainFunc) string {
	space := bo.Space{
		{Name: "a", Lo: 0, Hi: 10},
		{Name: "b", Lo: -5, Hi: 5},
		{Name: "c", Lo: 0, Hi: 1},
	}
	rng := rand.New(rand.NewSource(seed))
	opt := bo.New(space, rng, bo.Options{
		InitSamples: 6,
		Forest:      rf.Options{NumTrees: 8, Workers: 1},
		Train:       train,
	}, nil)
	opt.Run(40, func(v []float64) (float64, bool) {
		return (v[0]-7)*(v[0]-7) + v[1]*v[1] + 3*v[2], true
	}, nil)
	h := sha256.New()
	for _, ob := range opt.Observations() {
		for _, x := range ob.X {
			fmt.Fprintf(h, "%.17g ", x)
		}
		fmt.Fprintf(h, "-> %.17g\n", ob.Y)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// fitCost runs fits back-to-back refits through fit, reseeding one rng so
// only the fit itself is timed and counted, and returns the best per-fit
// wall time and heap-allocation count over rounds rounds.
func fitCost(seed int64, rounds, fits int, fit func(rng *rand.Rand)) (nsPerFit int64, allocsPerFit float64) {
	rng := rand.New(rand.NewSource(seed))
	fit(rng) // warm-up: pooled scratch and caches
	var m0, m1 runtime.MemStats
	for round := 0; round < rounds; round++ {
		runtime.ReadMemStats(&m0)
		start := time.Now()
		for i := 0; i < fits; i++ {
			rng.Seed(seed)
			fit(rng)
		}
		ns := time.Since(start).Nanoseconds() / int64(fits)
		runtime.ReadMemStats(&m1)
		allocs := float64(m1.Mallocs-m0.Mallocs) / float64(fits)
		if round == 0 || ns < nsPerFit {
			nsPerFit = ns
		}
		if round == 0 || allocs < allocsPerFit {
			allocsPerFit = allocs
		}
	}
	return nsPerFit, allocsPerFit
}

// runPredictArm scores the probe set across g goroutines, one fan-out task
// per contiguous chunk, writing into fixed means/stds slots. predict scores
// one chunk (the flat arm batches it through PredictBatch; the reference arm
// walks it point by point, which is how the pointer engine was driven).
func runPredictArm(g int, probes [][]float64, means, stds []float64,
	predict func(chunk [][]float64, means, stds []float64)) time.Duration {
	start := time.Now()
	_ = fanout.Run(g, g, func(_, w int) error {
		lo, hi := w*len(probes)/g, (w+1)*len(probes)/g
		predict(probes[lo:hi], means[lo:hi], stds[lo:hi])
		return nil
	})
	return time.Since(start)
}

// RunSurrogateBench benchmarks the flat random-forest engine (struct-of-
// arrays nodes, presorted prefix-sum split search, batched traversal) against
// the pointer-based reference implementation it replaced, at several
// goroutine counts. Correctness is gated before speed: every tree of the two
// engines must predict bit-identically, the batched and point-at-a-time
// predictions must agree exactly at every goroutine count, and a full BO
// search driven by either surrogate must visit the identical observation
// sequence (search hash). Speed gates: fit >=2x and batched predict >=3x at
// g=8. When jsonPath is non-empty the result table is also written there as
// JSON (BENCH_surrogate.json).
func (r *Runner) RunSurrogateBench(ctx context.Context, w io.Writer, jsonPath string) (*SurrogateBenchResult, error) {
	const (
		samples = 3000
		dims    = 6
		probes  = 4096
		rounds  = 3
	)
	opts := rf.Options{NumTrees: 24, MaxDepth: 12}
	X, y := surrogateData(r.Seed, samples, dims)
	probeX, _ := surrogateData(r.Seed+1, probes, dims)
	res := &SurrogateBenchResult{Samples: samples, Dims: dims, Trees: opts.NumTrees, Probes: probes}
	fmt.Fprintf(w, "=== Surrogate microbenchmark | %d samples x %d dims, %d trees, %d probes ===\n",
		samples, dims, opts.NumTrees, probes)

	// Correctness gate 1: per-tree differential equality on the probe set.
	flat := rf.Train(rand.New(rand.NewSource(r.Seed)), X, y, opts)
	ref := rf.ReferenceTrain(rand.New(rand.NewSource(r.Seed)), X, y, opts)
	for _, x := range probeX[:256] {
		for t := 0; t < flat.NumTrees(); t++ {
			if got, want := flat.PredictTree(t, x), ref.PredictTree(t, x); got != want {
				return nil, fmt.Errorf("benchmarks: surrogate tree %d diverged at %v: flat %.17g != reference %.17g",
					t, x, got, want)
			}
		}
	}

	// Correctness gate 2: identical end-to-end BO search under either engine.
	flatHash := surrogateSearchHash(r.Seed, nil) // default trainer: rf.Train
	refHash := surrogateSearchHash(r.Seed, func(rng *rand.Rand, X [][]float64, y []float64, o rf.Options) bo.Surrogate {
		return rf.ReferenceTrain(rng, X, y, o)
	})
	if flatHash != refHash {
		return nil, fmt.Errorf("benchmarks: BO search diverged between surrogate engines: flat %s != reference %s",
			flatHash, refHash)
	}
	res.SearchHash = flatHash

	flatMeans := make([]float64, probes)
	flatStds := make([]float64, probes)
	refMeans := make([]float64, probes)
	refStds := make([]float64, probes)
	for _, g := range []int{1, 2, 8} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pt := SurrogatePoint{Goroutines: g}
		for round := 0; round < rounds; round++ {
			fo := opts
			fo.Workers = g
			start := time.Now()
			rf.Train(rand.New(rand.NewSource(r.Seed)), X, y, fo)
			if d := time.Since(start).Nanoseconds(); pt.FlatFitNS == 0 || d < pt.FlatFitNS {
				pt.FlatFitNS = d
			}
			start = time.Now()
			rf.ReferenceTrain(rand.New(rand.NewSource(r.Seed)), X, y, opts)
			if d := time.Since(start).Nanoseconds(); pt.RefFitNS == 0 || d < pt.RefFitNS {
				pt.RefFitNS = d
			}

			flatTime := runPredictArm(g, probeX, flatMeans, flatStds, func(chunk [][]float64, m, s []float64) {
				flat.PredictBatch(chunk, m, s)
			})
			refTime := runPredictArm(g, probeX, refMeans, refStds, func(chunk [][]float64, m, s []float64) {
				for i, x := range chunk {
					m[i], s[i] = ref.Predict(x)
				}
			})
			for i := range flatMeans {
				if flatMeans[i] != refMeans[i] || flatStds[i] != refStds[i] {
					return nil, fmt.Errorf("benchmarks: surrogate prediction diverged at g=%d probe %d: flat (%.17g,%.17g) != reference (%.17g,%.17g)",
						g, i, flatMeans[i], flatStds[i], refMeans[i], refStds[i])
				}
			}
			if ps := float64(probes) / flatTime.Seconds(); ps > pt.FlatPredictPerSec {
				pt.FlatPredictPerSec = ps
			}
			if ps := float64(probes) / refTime.Seconds(); ps > pt.RefPredictPerSec {
				pt.RefPredictPerSec = ps
			}
		}
		pt.FitSpeedup = float64(pt.RefFitNS) / float64(pt.FlatFitNS)
		pt.PredictSpeedup = pt.FlatPredictPerSec / pt.RefPredictPerSec
		res.Points = append(res.Points, pt)
		fmt.Fprintf(w, "goroutines=%-3d fit: flat=%-8.1fms ref=%-8.1fms (%.2fx)  predict: flat=%-10.0f ref=%-10.0f probes/s (%.2fx)\n",
			g, float64(pt.FlatFitNS)/1e6, float64(pt.RefFitNS)/1e6, pt.FitSpeedup,
			pt.FlatPredictPerSec, pt.RefPredictPerSec, pt.PredictSpeedup)
	}
	fmt.Fprintf(w, "per-tree differential equality held; BO search hash %s identical under both engines\n", res.SearchHash)

	// Absolute refit cost at the BO shape (128 observations x 4 dims, 16
	// trees, one worker). Reported, not gated.
	bx, by := surrogateData(r.Seed+2, 128, 4)
	bo := rf.Options{NumTrees: 16, Workers: 1}
	res.BOFit = SurrogateFitCost{Samples: len(bx), Dims: 4, Trees: bo.NumTrees, Workers: bo.Workers}
	res.BOFit.FlatNSPerFit, res.BOFit.FlatAllocsPerFit = fitCost(r.Seed, rounds, 100, func(rng *rand.Rand) {
		rf.Train(rng, bx, by, bo)
	})
	res.BOFit.RefNSPerFit, res.BOFit.RefAllocsPerFit = fitCost(r.Seed, rounds, 100, func(rng *rand.Rand) {
		rf.ReferenceTrain(rng, bx, by, bo)
	})
	fmt.Fprintf(w, "BO-shape refit (%dx%d, %d trees, %d worker): flat=%.1fus %.0f allocs  ref=%.1fus %.0f allocs per fit\n",
		res.BOFit.Samples, res.BOFit.Dims, res.BOFit.Trees, res.BOFit.Workers,
		float64(res.BOFit.FlatNSPerFit)/1e3, res.BOFit.FlatAllocsPerFit,
		float64(res.BOFit.RefNSPerFit)/1e3, res.BOFit.RefAllocsPerFit)

	last := res.Points[len(res.Points)-1]
	if last.FitSpeedup < 2 {
		return nil, fmt.Errorf("benchmarks: flat fit speedup %.2fx at g=%d below the 2x gate", last.FitSpeedup, last.Goroutines)
	}
	if last.PredictSpeedup < 3 {
		return nil, fmt.Errorf("benchmarks: batched predict speedup %.2fx at g=%d below the 3x gate", last.PredictSpeedup, last.Goroutines)
	}
	return res, writeBenchJSON(w, jsonPath, res)
}
