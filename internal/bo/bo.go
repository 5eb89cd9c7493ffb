// Package bo implements the Bayesian Optimization loop of §5.3: a
// random-forest surrogate over a normalized parameter space, a lower-
// confidence-bound acquisition function balancing exploitation and
// exploration, Latin-Hypercube initialization, and warm-starting from
// historical runs. It substitutes for the paper's SMAC3 dependency.
//
// The acquisition step is batched and allocation-free: Suggest generates the
// full candidate pool up front into buffers reused across calls, scores it
// in one rf.Forest.PredictBatch sweep, and returns the LCB argmin. The
// running best observation is tracked incrementally in Observe, so ranking
// candidates never rescans the history.
package bo

import (
	"math/rand"

	"sqlbarber/internal/rf"
	"sqlbarber/internal/stats"
)

// Param is one search dimension with its value domain.
type Param struct {
	Name    string
	Lo, Hi  float64
	Integer bool // round denormalized values to integers
}

// Space is an ordered set of parameters.
type Space []Param

// Size estimates the number of distinct configurations in the space, used by
// Algorithm 3's remaining-search-space bookkeeping.
func (s Space) Size() float64 {
	total := 1.0
	for _, p := range s {
		if p.Integer {
			total *= p.Hi - p.Lo + 1
		} else {
			total *= 1000 // continuous dimensions contribute a large factor
		}
	}
	return total
}

// Denormalize maps a unit-cube point to parameter values.
func (s Space) Denormalize(x []float64) []float64 {
	return s.DenormalizeInto(make([]float64, len(s)), x)
}

// DenormalizeInto is Denormalize writing into the caller's buffer
// (len(dst) >= len(s)), returning dst[:len(s)]. Hot loops that denormalize
// per candidate reuse one buffer instead of allocating.
func (s Space) DenormalizeInto(dst, x []float64) []float64 {
	dst = dst[:len(s)]
	for i, p := range s {
		v := p.Lo + x[i]*(p.Hi-p.Lo)
		if p.Integer {
			v = float64(int64(v + 0.5))
			if v > p.Hi {
				v = p.Hi
			}
			if v < p.Lo {
				v = p.Lo
			}
		}
		dst[i] = v
	}
	return dst
}

// Normalize maps parameter values back to the unit cube.
func (s Space) Normalize(vals []float64) []float64 {
	return s.NormalizeInto(make([]float64, len(s)), vals)
}

// NormalizeInto is Normalize writing into the caller's buffer
// (len(dst) >= len(s)), returning dst[:len(s)].
func (s Space) NormalizeInto(dst, vals []float64) []float64 {
	dst = dst[:len(s)]
	for i, p := range s {
		dst[i] = 0
		if p.Hi > p.Lo {
			dst[i] = (vals[i] - p.Lo) / (p.Hi - p.Lo)
		}
	}
	return dst
}

// Observation is one evaluated configuration.
type Observation struct {
	X []float64 // unit-cube coordinates
	Y float64   // objective value (lower is better)
}

// Acquisition and fit parameters. initSamples and the serial fit are the one
// configuration the search runs (Algorithm 3).
const (
	candidates  = 64  // acquisition candidates per step
	kappa       = 1.0 // exploration weight in the lower confidence bound
	initSamples = 4   // LHS warm-up evaluations
)

// Optimizer minimizes an objective over a Space.
type Optimizer struct {
	space Space
	rng   *rand.Rand
	obs   []Observation
	init  [][]float64 // pending LHS initialization points

	best    Observation // running minimum, maintained by Observe
	hasBest bool

	forest       *rf.Forest
	forestObsLen int // observation count the cached forest was trained on

	// Buffers reused across Suggest calls: the candidate pool (candX rows
	// alias candFlat), its scores, surrogate training inputs, and the
	// returned suggestion. Suggest allocates only on pool growth.
	candFlat   []float64
	candX      [][]float64
	means      []float64
	stds       []float64
	trainX     [][]float64
	trainY     []float64
	suggestBuf []float64
}

// New creates an optimizer; pass prior observations (e.g. re-evaluated
// history from earlier runs) to warm-start the surrogate.
func New(space Space, rng *rand.Rand, warmStart []Observation) *Optimizer {
	o := &Optimizer{space: space, rng: rng}
	for _, ob := range warmStart {
		o.Observe(ob.X, ob.Y)
	}
	n := initSamples - len(warmStart)
	if n > 0 {
		o.init = stats.LatinHypercube(rng, n, len(space))
	}
	return o
}

// Observe records an evaluation result and folds it into the running best,
// keeping Best O(1) however many candidates consult it.
func (o *Optimizer) Observe(x []float64, y float64) {
	ob := Observation{X: append([]float64(nil), x...), Y: y}
	o.obs = append(o.obs, ob)
	if !o.hasBest || y < o.best.Y {
		o.best = ob
		o.hasBest = true
	}
}

// Best returns the observation with minimal objective, or ok=false when
// nothing has been observed. O(1): the minimum is maintained incrementally
// by Observe (first-observed wins ties, matching a linear scan with <).
func (o *Optimizer) Best() (Observation, bool) {
	return o.best, o.hasBest
}

// Suggest proposes the next unit-cube point: pending LHS initialization
// first, then surrogate-guided acquisition — the full candidate pool is
// generated into reused buffers and scored in a single PredictBatch sweep.
// The returned slice is valid until the next Suggest call; Observe copies,
// so the Run loop never aliases stale suggestions.
func (o *Optimizer) Suggest() []float64 {
	if len(o.init) > 0 {
		x := o.init[0]
		o.init = o.init[1:]
		return x
	}
	dims := len(o.space)
	if cap(o.suggestBuf) < dims {
		o.suggestBuf = make([]float64, dims)
	}
	o.suggestBuf = o.suggestBuf[:dims]
	if len(o.obs) < 2 {
		o.randomPointInto(o.suggestBuf)
		return o.suggestBuf
	}
	// Retrain the surrogate only after a few new observations; refitting on
	// every suggestion dominates runtime without improving the search.
	if o.forest == nil || len(o.obs)-o.forestObsLen >= 4 {
		o.trainX = o.trainX[:0]
		o.trainY = o.trainY[:0]
		for _, ob := range o.obs {
			o.trainX = append(o.trainX, ob.X)
			o.trainY = append(o.trainY, ob.Y)
		}
		// Serial fit: the search waves already parallelize across
		// templates, so forest workers would only oversubscribe.
		o.forest = rf.Train(o.rng, o.trainX, o.trainY, rf.Options{Workers: 1})
		o.forestObsLen = len(o.obs)
	}
	if cap(o.candFlat) < candidates*dims {
		o.candFlat = make([]float64, candidates*dims)
		o.candX = make([][]float64, candidates)
		o.means = make([]float64, candidates)
		o.stds = make([]float64, candidates)
	}
	for c := 0; c < candidates; c++ {
		cand := o.candFlat[c*dims : (c+1)*dims]
		if c%2 == 0 {
			o.randomPointInto(cand)
		} else {
			o.mutateBestInto(cand)
		}
		o.candX[c] = cand
	}
	o.forest.PredictBatch(o.candX, o.means, o.stds)
	bestIdx, bestScore := -1, 0.0
	for c := 0; c < candidates; c++ {
		score := o.means[c] - kappa*o.stds[c] // lower confidence bound
		if bestIdx < 0 || score < bestScore {
			bestScore = score
			bestIdx = c
		}
	}
	copy(o.suggestBuf, o.candX[bestIdx])
	return o.suggestBuf
}

func (o *Optimizer) randomPointInto(x []float64) {
	for i := range x {
		x[i] = o.rng.Float64()
	}
}

// mutateBestInto perturbs one of the best observations (local search
// component of the acquisition candidate pool) into the caller's buffer.
func (o *Optimizer) mutateBestInto(x []float64) {
	// Pick among the top few observations.
	best, _ := o.Best()
	base := best.X
	if len(o.obs) > 4 && o.rng.Intn(3) == 0 {
		base = o.obs[o.rng.Intn(len(o.obs))].X
	}
	for i, v := range base {
		v += o.rng.NormFloat64() * 0.1
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1 - 1e-9
		}
		x[i] = v
	}
}

// Run drives the full minimize loop for budget evaluations.
func (o *Optimizer) Run(budget int, objective func(vals []float64) (float64, bool)) {
	for i := 0; i < budget; i++ {
		x := o.Suggest()
		y, ok := objective(o.space.Denormalize(x))
		if ok {
			o.Observe(x, y)
		}
	}
}
