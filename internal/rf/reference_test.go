package rf

// This file keeps a deliberately naive pointer-based implementation of the
// exact training algorithm in forest.go. It is the differential-testing
// oracle (per-tree predictions must equal the flat forest's bit for bit) and
// the baseline arm of BenchmarkForestVsReference. Naive on purpose: pointer
// nodes, per-node index-slice and pair-slice allocations, a fresh stable
// sort at every (node, feature), a from-scratch sum per candidate threshold —
// everything the flat engine eliminates. It shares only splitScore, the
// definition of a split's cost, with forest.go.
// Keep it simple rather than fast; as a test file it is outside barbervet
// rule R010's no-allocation-in-recursion check.

import (
	"math"
	"math/rand"
	"sort"

	"sqlbarber/internal/prand"
)

// ReferenceForest is the pointer-based oracle counterpart of Forest.
type ReferenceForest struct {
	trees []*refNode
}

type refNode struct {
	// Leaf fields
	value float64
	leaf  bool
	// Split fields
	feature   int
	threshold float64
	left      *refNode
	right     *refNode
}

// ReferenceTrain fits the oracle forest. It consumes the caller's rng
// exactly like Train (per-tree bootstrap then stream seed, serially) and
// mirrors every algorithmic decision — feature draws, stable value ordering,
// threshold scoring (by its own from-scratch scan, refThreshold), stable
// partitioning — so the resulting trees
// predict bit-identically to Train's on every input.
func ReferenceTrain(rng *rand.Rand, X [][]float64, y []float64, opts Options) *ReferenceForest {
	opts = opts.withDefaults()
	if len(X) == 0 {
		return &ReferenceForest{}
	}
	n, dims := len(X), len(X[0])
	f := &ReferenceForest{}
	for t := 0; t < opts.NumTrees; t++ {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = rng.Intn(n) // bootstrap sample
		}
		treeRng := prand.New(rng.Int63())
		featPerm := make([]int, dims)
		for d := range featPerm {
			featPerm[d] = d
		}
		f.trees = append(f.trees, refBuild(treeRng, X, y, idx, featPerm, 0, opts))
	}
	return f
}

func refBuild(rng *rand.Rand, X [][]float64, y []float64, idx []int, featPerm []int, depth int, opts Options) *refNode {
	sum := 0.0
	for _, i := range idx {
		sum += y[i]
	}
	mean := sum / float64(len(idx))
	if depth >= opts.MaxDepth || len(idx) < 2*opts.MinLeafSize || refPure(y, idx) {
		return &refNode{leaf: true, value: mean}
	}
	dims := len(X[0])
	nFeat := int(math.Ceil(featureFrac * float64(dims)))
	bestFeat, bestTh, bestScore := -1, 0.0, math.Inf(1)
	for k := 0; k < nFeat; k++ {
		j := k + rng.Intn(dims-k)
		featPerm[k], featPerm[j] = featPerm[j], featPerm[k]
		f := featPerm[k]
		vals := make([]float64, len(idx))
		ys := make([]float64, len(idx))
		ord := make([]int, len(idx))
		for m := range ord {
			ord[m] = m
		}
		// Stable sort by value, ties keeping sample order — the unique
		// stable permutation, matching the flat engine's presorted view.
		sort.SliceStable(ord, func(a, b int) bool {
			return X[idx[ord[a]]][f] < X[idx[ord[b]]][f]
		})
		for m, o := range ord {
			vals[m] = X[idx[o]][f]
			ys[m] = y[idx[o]]
		}
		th, score, ok := refThreshold(vals, ys, opts.MinLeafSize)
		if ok && score < bestScore {
			bestFeat, bestTh, bestScore = f, th, score
		}
	}
	if bestFeat < 0 {
		return &refNode{leaf: true, value: mean}
	}
	var li, ri []int
	for _, i := range idx {
		if X[i][bestFeat] <= bestTh {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	return &refNode{
		feature:   bestFeat,
		threshold: bestTh,
		left:      refBuild(rng, X, y, li, featPerm, depth+1, opts),
		right:     refBuild(rng, X, y, ri, featPerm, depth+1, opts),
	}
}

// refThreshold is the oracle's own threshold scan, written independently of
// the flat engine's prefix-sum sweep. For each group boundary k (vals[k] !=
// vals[k+1]) leaving at least minLeaf samples per side, it sums the left
// side's Σy and Σy² from scratch in block order, takes the right side as the
// node totals minus the left side's, and scores the split with splitScore
// (the algorithm's definition of a split's cost). The lowest score wins; on
// ties the first boundary does.
func refThreshold(vals, ys []float64, minLeaf int) (thresh, score float64, ok bool) {
	var total, totalSq float64
	for _, v := range ys {
		total += v
		totalSq += v * v
	}
	score = math.Inf(1)
	for k := 0; k+1 < len(vals); k++ {
		ln, rn := k+1, len(vals)-k-1
		if vals[k] == vals[k+1] || ln < minLeaf || rn < minLeaf {
			continue
		}
		var ls, lss float64
		for _, v := range ys[:ln] {
			ls += v
			lss += v * v
		}
		if s := splitScore(ls, lss, ln, total-ls, totalSq-lss, rn); s < score {
			thresh, score, ok = vals[k], s, true
		}
	}
	return thresh, score, ok
}

func refPure(y []float64, idx []int) bool {
	first := y[idx[0]]
	for _, i := range idx[1:] {
		if y[i] != first {
			return false
		}
	}
	return true
}

// Predict returns the ensemble mean and standard deviation, the same
// aggregation (and accumulation order) as Forest.Predict.
func (f *ReferenceForest) Predict(x []float64) (mean, std float64) {
	if len(f.trees) == 0 {
		return 0, 1
	}
	var s, ss float64
	for _, t := range f.trees {
		v := t.predict(x)
		s += v
		ss += v * v
	}
	n := float64(len(f.trees))
	mean = s / n
	variance := ss/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return mean, math.Sqrt(variance)
}

// PredictTree returns tree t's prediction alone.
func (f *ReferenceForest) PredictTree(t int, x []float64) float64 {
	return f.trees[t].predict(x)
}

// NumTrees reports how many trees the forest holds.
func (f *ReferenceForest) NumTrees() int { return len(f.trees) }

func (n *refNode) predict(x []float64) float64 {
	for !n.leaf {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}
