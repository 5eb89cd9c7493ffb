package stats

import (
	"math"
)

// TargetDistribution is a user-specified target cost distribution: how many
// queries should land in each interval (the d* of Algorithms 2 and 3).
type TargetDistribution struct {
	Intervals Intervals
	Counts    []int
}

// Total returns the total number of queries the distribution requests.
func (d *TargetDistribution) Total() int {
	t := 0
	for _, c := range d.Counts {
		t += c
	}
	return t
}

// Clone returns a deep copy.
func (d *TargetDistribution) Clone() *TargetDistribution {
	return &TargetDistribution{
		Intervals: append(Intervals(nil), d.Intervals...),
		Counts:    append([]int(nil), d.Counts...),
	}
}

// FromWeights builds a target distribution over intervals that allocates
// total queries proportionally to the weights, distributing rounding
// leftovers to the largest-weight intervals first so the counts sum exactly
// to total. Negative and NaN weights count as zero; when no weight is
// positive every count is zero.
func FromWeights(ivs Intervals, weights []float64, total int) *TargetDistribution {
	if len(weights) != len(ivs) {
		panic("stats: weights length mismatch")
	}
	sum := 0.0
	for _, w := range weights {
		sum += positive(w)
	}
	counts := make([]int, len(ivs))
	if sum == 0 || total <= 0 {
		return &TargetDistribution{Intervals: ivs, Counts: counts}
	}
	type rem struct {
		idx  int
		frac float64
	}
	assigned := 0
	rems := make([]rem, len(ivs))
	for i, w := range weights {
		exact := float64(total) * positive(w) / sum
		counts[i] = int(exact)
		assigned += counts[i]
		rems[i] = rem{i, exact - float64(counts[i])}
	}
	for assigned < total {
		best := 0
		for i := 1; i < len(rems); i++ {
			if rems[i].frac > rems[best].frac {
				best = i
			}
		}
		counts[rems[best].idx]++
		rems[best].frac = -1
		assigned++
	}
	return &TargetDistribution{Intervals: ivs, Counts: counts}
}

// positive returns w, or 0 when w is negative, zero or NaN.
func positive(w float64) float64 {
	if w > 0 {
		return w
	}
	return 0
}

// Uniform builds a uniform target distribution of total queries over n
// equal intervals spanning [lo, hi).
func Uniform(lo, hi float64, n, total int) *TargetDistribution {
	ivs := SplitRange(lo, hi, n)
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return FromWeights(ivs, w, total)
}

// Normal builds a truncated-normal target distribution with the given mean
// and standard deviation over [lo, hi).
func Normal(lo, hi float64, n, total int, mean, stddev float64) *TargetDistribution {
	ivs := SplitRange(lo, hi, n)
	w := make([]float64, n)
	for i, iv := range ivs {
		x := (iv.Center() - mean) / stddev
		w[i] = math.Exp(-x * x / 2)
	}
	return FromWeights(ivs, w, total)
}

// Wasserstein computes the 1-Wasserstein (earth mover's) distance between
// two histograms over the same intervals, in cost units. Counts are
// normalized to probability mass; the distance is the integral of the
// absolute CDF difference. An all-zero histogram is treated as a point mass
// at the low end of the range, which matches the paper's convention that a
// run starts at a large distance and converges toward zero.
func Wasserstein(ivs Intervals, a, b []int) float64 {
	pa := normalizeOrPointMass(a)
	pb := normalizeOrPointMass(b)
	d := 0.0
	ca, cb := 0.0, 0.0
	for i := range ivs {
		ca += pa[i]
		cb += pb[i]
		d += math.Abs(ca-cb) * ivs[i].Width()
	}
	return d
}

// WassersteinCosts computes the distance between a target distribution and a
// set of observed costs.
func WassersteinCosts(target *TargetDistribution, costs []float64) float64 {
	return Wasserstein(target.Intervals, target.Counts, target.Intervals.CountInto(costs))
}

func normalizeOrPointMass(counts []int) []float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	out := make([]float64, len(counts))
	if total == 0 {
		out[0] = 1
		return out
	}
	for i, c := range counts {
		out[i] = float64(c) / float64(total)
	}
	return out
}

// DeficitDistance is the complementary gap metric used for progress
// reporting: the total shortfall of queries across intervals, weighted by
// interval width (so it is in cost units and reaches 0 exactly when every
// interval is filled to target).
func DeficitDistance(target *TargetDistribution, have []int) float64 {
	d := 0.0
	for i, want := range target.Counts {
		if have[i] < want {
			d += float64(want-have[i]) * target.Intervals[i].Width() / float64(maxInt(1, target.Total())) * float64(len(target.Counts))
		}
	}
	return d
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
