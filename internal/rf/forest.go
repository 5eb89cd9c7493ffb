// Package rf implements a random-forest regressor (bagged CART trees with
// feature subsampling). It is the surrogate model of SQLBarber's Bayesian
// optimizer (§5.3), standing in for SMAC3's random forest.
//
// The forest is stored flat: every tree is a contiguous run of 16-byte
// flatNode records in one shared []flatNode (preorder, so a split's left
// child is always the next record and only the right-child index is stored).
// Training is allocation-free on the per-node hot path — a column-major
// feature matrix and the dense rank of every feature value are built once
// per Train, each tree presorts its bootstrap sample once per feature with a
// stable counting sort over those ranks, and every node reuses the tree's
// scratch buffers for gathering, scoring, and stable in-place partitioning.
// Split search is O(n) per feature per tree for the presort, then a single
// prefix-sum sweep of (count, Σy, Σy²) scores every candidate threshold at a
// node in O(n), instead of re-sorting and rescanning per candidate.
//
// Trees fit in parallel (Options.Workers) and merge in tree order; because
// every tree's bootstrap sample and prand stream seed are drawn serially up
// front from the caller's rng, the forest bytes are identical at any worker
// count. Builders, their buffers and their prand.Source live in a pooled
// trainer and are reused across trees and Train calls: a tree reseeds its
// builder's source (O(1), by jump-ahead) instead of allocating a fresh
// math/rand state. reference_test.go keeps a deliberately naive pointer-
// based implementation of the same algorithm as the differential-testing
// oracle and the baseline of BenchmarkForestVsReference.
package rf

import (
	"cmp"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"

	"sqlbarber/internal/fanout"
	"sqlbarber/internal/prand"
)

// featureFrac is the fraction of features drawn at each split.
const featureFrac = 0.8

// Options configures forest training. The zero value is usable; fields at
// zero take the documented defaults.
type Options struct {
	NumTrees    int // default 16
	MaxDepth    int // default 10
	MinLeafSize int // default 2
	// Workers bounds the goroutines fitting trees concurrently (default
	// GOMAXPROCS). Pure scheduling: the forest bytes are identical at every
	// value, because all shared-rng draws happen serially before the fan-out.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.NumTrees <= 0 {
		o.NumTrees = 16
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = 10
	}
	if o.MinLeafSize <= 0 {
		o.MinLeafSize = 2
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// leafFeature marks a flatNode as a leaf; its threshold field then holds the
// predicted value.
const leafFeature int32 = -1

// flatNode is one tree node in the struct-of-arrays forest. Split nodes test
// x[feature] <= threshold; the left child is the next node in the slice
// (preorder layout) and right is the index of the right child within the
// forest's shared node array. Leaves store the prediction in threshold and
// set feature to leafFeature.
type flatNode struct {
	threshold float64
	feature   int32
	right     int32
}

// Forest is a trained random-forest regressor.
type Forest struct {
	nodes []flatNode
	roots []int32 // per-tree root index into nodes
	dims  int
}

// Train fits a forest to (X, y). X rows must share one length. Training is
// deterministic for a fixed rng state regardless of Options.Workers: every
// tree's bootstrap sample and private stream seed are drawn serially from
// rng up front, then trees fit concurrently on their own prand streams and
// merge in tree order.
func Train(rng *rand.Rand, X [][]float64, y []float64, opts Options) *Forest {
	opts = opts.withDefaults()
	if len(X) == 0 {
		return &Forest{}
	}
	n, dims := len(X), len(X[0])
	workers := min(opts.Workers, opts.NumTrees)
	tr := getTrainer()
	defer tr.release()
	tr.reset(X, n, dims, opts.NumTrees, workers)
	// Serial up-front draws: bootstrap samples and per-tree stream seeds.
	// Nothing after this point touches the shared rng, so worker count can
	// never change what a tree computes.
	for t := 0; t < opts.NumTrees; t++ {
		bs := tr.boots[t*n : (t+1)*n]
		for i := range bs {
			bs[i] = int32(rng.Intn(n))
		}
		tr.seeds[t] = rng.Int63()
	}

	for _, b := range tr.builders[:workers] {
		b.reset(tr, y, n, dims, opts)
	}
	_ = fanout.Run(workers, opts.NumTrees, tr.fitTask)

	// Ordered merge: copy each tree's node run out of its builder into the
	// shared array in tree order, rebasing right-child indices.
	total := 0
	for _, sp := range tr.spans {
		total += int(sp.end - sp.start)
	}
	f := &Forest{
		nodes: make([]flatNode, 0, total),
		roots: make([]int32, opts.NumTrees),
		dims:  dims,
	}
	for t, sp := range tr.spans {
		off := int32(len(f.nodes))
		f.roots[t] = off
		for _, nd := range tr.builders[sp.builder].nodes[sp.start:sp.end] {
			if nd.feature != leafFeature {
				nd.right += off - sp.start
			}
			f.nodes = append(f.nodes, nd)
		}
	}
	return f
}

// trainers recycles Train scratch across calls: BO refits a small forest
// after every few observations, so fresh buffers (and a fresh math/rand
// state per tree) would otherwise cost more than the split search itself.
// It is a free list, last returned first out, rather than a sync.Pool, so
// which scratch a call gets, and so what it allocates, depends only on the
// order of the calls, not on the goroutine's P or on GC timing.
var trainers struct {
	sync.Mutex
	free []*trainer
}

// getTrainer takes the most recently released trainer, or a new one.
func getTrainer() *trainer {
	trainers.Lock()
	defer trainers.Unlock()
	if k := len(trainers.free); k > 0 {
		tr := trainers.free[k-1]
		trainers.free[k-1] = nil
		trainers.free = trainers.free[:k-1]
		return tr
	}
	tr := new(trainer)
	tr.fitTask = tr.fit
	return tr
}

// trainer is the scratch of one Train call: the shared read-only inputs every
// tree builder sees, the serial up-front draws, and one builder per worker.
type trainer struct {
	// cols is the column-major feature matrix, cols[f*n+i] = X[i][f]: every
	// gather during split search walks one contiguous column.
	cols []float64
	// ranks[f*n+i] is the dense rank of X[i][f] among column f's distinct
	// values (== ties, so -0 and +0 share a rank). Tree presorts are counting
	// sorts over these.
	ranks    []int32
	idx      []int32 // rank computation scratch
	boots    []int32 // per-tree bootstrap samples, n each
	seeds    []int64 // per-tree prand stream seeds
	spans    []treeSpan
	builders []*treeBuilder
	// fitTask is tr.fit as a fan-out task, bound once per pooled trainer so
	// a warm Train allocates no closure.
	fitTask func(w, t int) error
}

// fit builds tree t on builders[w] and records where its nodes landed. It
// never fails; the error result makes it a fan-out task.
func (tr *trainer) fit(w, t int) error {
	b := tr.builders[w]
	start := len(b.nodes)
	b.build(tr.boots[t*b.n:(t+1)*b.n], tr.seeds[t])
	tr.spans[t] = treeSpan{builder: int32(w), start: int32(start), end: int32(len(b.nodes))}
	return nil
}

// treeSpan locates one fitted tree: nodes[start:end] of builders[builder].
type treeSpan struct{ builder, start, end int32 }

func (tr *trainer) reset(X [][]float64, n, dims, trees, workers int) {
	tr.cols = resize(tr.cols, dims*n)
	for i, row := range X {
		for f := 0; f < dims; f++ {
			tr.cols[f*n+i] = row[f]
		}
	}
	tr.ranks = resize(tr.ranks, dims*n)
	tr.idx = resize(tr.idx, n)
	for f := 0; f < dims; f++ {
		col := tr.cols[f*n : (f+1)*n]
		for i := range tr.idx {
			tr.idx[i] = int32(i)
		}
		slices.SortFunc(tr.idx, func(a, b int32) int { return cmp.Compare(col[a], col[b]) })
		rank, ranks := int32(0), tr.ranks[f*n:(f+1)*n]
		for k, i := range tr.idx {
			if k > 0 && col[i] != col[tr.idx[k-1]] {
				rank++
			}
			ranks[i] = rank
		}
	}
	tr.boots = resize(tr.boots, trees*n)
	tr.seeds = resize(tr.seeds, trees)
	tr.spans = resize(tr.spans, trees)
	for len(tr.builders) < workers {
		tr.builders = append(tr.builders, &treeBuilder{rng: rand.New(prand.NewSource(0))})
	}
}

// release drops the builders' references to the caller's targets and
// returns the scratch to the free list.
func (tr *trainer) release() {
	for _, b := range tr.builders {
		b.y = nil
	}
	trainers.Lock()
	trainers.free = append(trainers.free, tr)
	trainers.Unlock()
}

// resize returns s with length n, reusing its backing array when it fits.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// treeBuilder owns all scratch state for fitting trees. It lives in a pooled
// trainer, so its buffers are reused across trees and across Train calls;
// the per-node recursion never allocates (pinned by barbervet rule R010).
type treeBuilder struct {
	cols  []float64 // column-major features, shared and read-only
	ranks []int32   // dense feature-value ranks, shared and read-only
	y     []float64 // targets, shared and read-only
	n     int       // sample count (= bootstrap size)
	dims  int
	opts  Options
	// rng runs on a prand.Source reseeded per tree, so a tree's draws are
	// exactly prand.New(seed)'s without allocating a generator per tree.
	rng *rand.Rand

	// order holds dims+1 blocks of n indices over the bootstrap sample.
	// Block 0 is row order (bootstrap draw order; leaf means and purity
	// checks read it). Block f+1 is the sample stably sorted by feature f —
	// counting-sorted by rank once per tree, then kept sorted through every
	// split by stable partitioning, so nodes never re-sort.
	order    []int32
	scratch  []int32   // right-half staging for stable partition
	counts   []int32   // counting-sort bucket offsets, one per rank
	vals, ys []float64 // per-node gather buffers for the score sweep
	featPerm []int     // persistent permutation for per-node feature draws
	// nodes holds every tree this builder fits in one Train, back to back;
	// right-child indices are relative to the start of this slice.
	nodes []flatNode
}

func (b *treeBuilder) reset(tr *trainer, y []float64, n, dims int, opts Options) {
	b.cols, b.ranks, b.y = tr.cols, tr.ranks, y
	b.n, b.dims, b.opts = n, dims, opts
	b.order = resize(b.order, (dims+1)*n)
	b.scratch = resize(b.scratch, n)
	b.counts = resize(b.counts, n+1)
	b.vals = resize(b.vals, n)
	b.ys = resize(b.ys, n)
	b.featPerm = resize(b.featPerm, dims)
	b.nodes = b.nodes[:0]
}

// block returns the order block for feature f (block -1 is row order).
func (b *treeBuilder) block(f int) []int32 {
	return b.order[(f+1)*b.n : (f+2)*b.n]
}

// build fits one tree on the bootstrap sample, drawing features from the
// stream prand.New(seed) would give, and appends its nodes to b.nodes.
func (b *treeBuilder) build(bootstrap []int32, seed int64) {
	b.rng.Seed(prand.Mix(seed))
	for f := range b.featPerm {
		b.featPerm[f] = f
	}
	b.presort(bootstrap)
	b.grow(0, b.n, 0)
}

// presort fills the order blocks from the bootstrap sample: block -1 in draw
// order, block f by a stable counting sort on feature f's ranks. Ties keep
// bootstrap order, so each block is exactly the permutation
// sort.SliceStable(<) gives, and every node's sweep sees the same
// (value, y) sequence the reference oracle produces — in O(n) per feature.
func (b *treeBuilder) presort(bootstrap []int32) {
	copy(b.block(-1), bootstrap)
	for f := 0; f < b.dims; f++ {
		ranks := b.ranks[f*b.n : (f+1)*b.n]
		counts := b.counts
		clear(counts)
		for _, i := range bootstrap {
			counts[ranks[i]+1]++
		}
		for r := 1; r < len(counts); r++ {
			counts[r] += counts[r-1]
		}
		blk := b.block(f)
		for _, i := range bootstrap {
			r := ranks[i]
			blk[counts[r]] = i
			counts[r]++
		}
	}
}

// grow fits the node over rows [lo, hi) of every order block and returns its
// index. Preorder: the left subtree is emitted immediately after the node,
// so only the right-child index needs storing.
func (b *treeBuilder) grow(lo, hi, depth int) int32 {
	row := b.block(-1)[lo:hi]
	sum := 0.0
	for _, i := range row {
		sum += b.y[i]
	}
	mean := sum / float64(len(row))
	self := int32(len(b.nodes))
	if depth >= b.opts.MaxDepth || len(row) < 2*b.opts.MinLeafSize || b.pure(row) {
		b.nodes = append(b.nodes, flatNode{feature: leafFeature, threshold: mean})
		return self
	}
	nFeat := int(math.Ceil(featureFrac * float64(b.dims)))
	bestFeat, bestTh, bestScore := -1, 0.0, math.Inf(1)
	for k := 0; k < nFeat; k++ {
		// Partial Fisher-Yates over the persistent permutation: nFeat draws
		// per node, no rng.Perm allocation.
		j := k + b.rng.Intn(b.dims-k)
		b.featPerm[k], b.featPerm[j] = b.featPerm[j], b.featPerm[k]
		f := b.featPerm[k]
		base := f * b.n
		for m, i := range b.block(f)[lo:hi] {
			b.vals[m] = b.cols[base+int(i)]
			b.ys[m] = b.y[i]
		}
		th, score, ok := bestThreshold(b.vals[:len(row)], b.ys[:len(row)], b.opts.MinLeafSize)
		if ok && score < bestScore {
			bestFeat, bestTh, bestScore = f, th, score
		}
	}
	if bestFeat < 0 {
		b.nodes = append(b.nodes, flatNode{feature: leafFeature, threshold: mean})
		return self
	}
	mid := b.partition(lo, hi, bestFeat, bestTh)
	if bestTh == 0 {
		// Store -0 as +0: traversal picks the child via the sign bit of
		// threshold-x, and sign(-0 - +0) would send an x == threshold == 0
		// row right when `x <= threshold` says left. Numerically identical,
		// so partition and the reference engine are unaffected.
		bestTh = 0
	}
	b.nodes = append(b.nodes, flatNode{feature: int32(bestFeat), threshold: bestTh})
	b.grow(lo, mid, depth+1) // left child lands at self+1
	right := b.grow(mid, hi, depth+1)
	b.nodes[self].right = right
	return self
}

func (b *treeBuilder) pure(row []int32) bool {
	first := b.y[row[0]]
	for _, i := range row[1:] {
		if b.y[i] != first {
			return false
		}
	}
	return true
}

// partition stably splits rows [lo, hi) of every order block on
// x[feat] <= th, in place via the scratch buffer, and returns the boundary.
// Stability preserves each block's sort invariant (and the row block's
// bootstrap order) across the split.
func (b *treeBuilder) partition(lo, hi, feat int, th float64) int {
	base := feat * b.n
	mid := lo
	for blk := -1; blk < b.dims; blk++ {
		seg := b.block(blk)[lo:hi]
		w, nr := 0, 0
		for _, i := range seg {
			if b.cols[base+int(i)] <= th {
				seg[w] = i
				w++
			} else {
				b.scratch[nr] = i
				nr++
			}
		}
		copy(seg[w:], b.scratch[:nr])
		mid = lo + w
	}
	return mid
}

// bestThreshold scores every candidate split of one feature in a single
// sweep. vals must be ascending with ys aligned (the feature's stably sorted
// view of the node's samples). Running prefix sums of (count, Σy, Σy²) give
// each boundary's splitScore in O(1), so the whole node costs O(n) per
// feature after the per-tree presort — the O(n log n) contract of the
// package doc. Thresholds are the left group's maximum value; only splits
// leaving at least minLeaf samples per side are considered.
func bestThreshold(vals, ys []float64, minLeaf int) (thresh, score float64, ok bool) {
	m := len(vals)
	var total, totalSq float64
	for _, v := range ys {
		total += v
		totalSq += v * v
	}
	score = math.Inf(1)
	var ls, lss float64
	for k := 0; k+1 < m; k++ {
		v := ys[k]
		ls += v
		lss += v * v
		if vals[k] == vals[k+1] {
			continue // not a group boundary: no threshold separates these
		}
		ln, rn := k+1, m-k-1
		if ln < minLeaf || rn < minLeaf {
			continue
		}
		if s := splitScore(ls, lss, ln, total-ls, totalSq-lss, rn); s < score {
			thresh, score, ok = vals[k], s, true
		}
	}
	return thresh, score, ok
}

// splitScore is the weighted sum of child variances (lower is better),
// computed from each side's (Σy, Σy², count). Catastrophic cancellation on
// near-constant leaves can push a variance a few ulps below zero; both sides
// clamp to 0 so a score can never be negative.
func splitScore(ls, lss float64, ln int, rs, rss float64, rn int) float64 {
	lvar := lss/float64(ln) - (ls/float64(ln))*(ls/float64(ln))
	rvar := rss/float64(rn) - (rs/float64(rn))*(rs/float64(rn))
	if lvar < 0 {
		lvar = 0
	}
	if rvar < 0 {
		rvar = 0
	}
	return lvar*float64(ln) + rvar*float64(rn)
}

// Predict returns the ensemble mean and standard deviation across trees —
// the surrogate's value and uncertainty estimates.
func (f *Forest) Predict(x []float64) (mean, std float64) {
	if len(f.roots) == 0 {
		return 0, 1
	}
	var s, ss float64
	for _, root := range f.roots {
		v := f.traverse(root, x)
		s += v
		ss += v * v
	}
	n := float64(len(f.roots))
	mean = s / n
	variance := ss/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return mean, math.Sqrt(variance)
}

// PredictBatch predicts every row of X at once, writing ensemble means and
// standard deviations into the caller's buffers (len >= len(X); extra
// entries untouched). The loop is tree-major over the contiguous node array
// — each tree's nodes stay hot in cache across the whole batch — and rows
// descend four at a time (traverse4): a lone traversal serializes on its
// parent-to-child node load every level, so four interleaved, mutually
// independent descents keep four loads in flight and hide most of that
// latency. stds is used as the Σv² accumulator in flight, so the call
// allocates nothing. Per-row results are bit-identical to Predict (one leaf
// value per tree per row, accumulated in tree order). Safe for concurrent
// use on a trained forest (the receiver is read-only; buffers must not be
// shared).
func (f *Forest) PredictBatch(X [][]float64, means, stds []float64) {
	means = means[:len(X)]
	stds = stds[:len(X)]
	if len(f.roots) == 0 {
		for i := range means {
			means[i] = 0
			stds[i] = 1
		}
		return
	}
	for i := range means {
		means[i] = 0
		stds[i] = 0
	}
	for _, root := range f.roots {
		i := 0
		for ; i+4 <= len(X); i += 4 {
			v0, v1, v2, v3 := f.traverse4(root, X[i], X[i+1], X[i+2], X[i+3])
			means[i] += v0
			stds[i] += v0 * v0
			means[i+1] += v1
			stds[i+1] += v1 * v1
			means[i+2] += v2
			stds[i+2] += v2 * v2
			means[i+3] += v3
			stds[i+3] += v3 * v3
		}
		for ; i < len(X); i++ {
			v := f.traverse(root, X[i])
			means[i] += v
			stds[i] += v * v
		}
	}
	n := float64(len(f.roots))
	for i := range means {
		mean := means[i] / n
		variance := stds[i]/n - mean*mean
		if variance < 0 {
			variance = 0
		}
		means[i] = mean
		stds[i] = math.Sqrt(variance)
	}
}

// traverse4 walks one tree for four rows in lockstep. Each lane's step is
// the same branchless sign-mask descent as traverse, and the four lanes'
// node loads are mutually independent, so they overlap instead of each lane
// serializing on its own parent-to-child load chain — the memory-level-
// parallelism trick behind PredictBatch's throughput. Lanes that reach a
// leaf idle (their guard branch becomes constant) until the deepest lane
// finishes.
func (f *Forest) traverse4(root int32, x0, x1, x2, x3 []float64) (v0, v1, v2, v3 float64) {
	nodes := f.nodes
	c0, c1, c2, c3 := root, root, root, root
	nd0, nd1, nd2, nd3 := nodes[root], nodes[root], nodes[root], nodes[root]
	for nd0.feature != leafFeature || nd1.feature != leafFeature ||
		nd2.feature != leafFeature || nd3.feature != leafFeature {
		if nd0.feature != leafFeature {
			m := -int32(math.Float64bits(nd0.threshold-x0[nd0.feature]) >> 63)
			c0 = c0 + 1 + (nd0.right-c0-1)&m
			nd0 = nodes[c0]
		}
		if nd1.feature != leafFeature {
			m := -int32(math.Float64bits(nd1.threshold-x1[nd1.feature]) >> 63)
			c1 = c1 + 1 + (nd1.right-c1-1)&m
			nd1 = nodes[c1]
		}
		if nd2.feature != leafFeature {
			m := -int32(math.Float64bits(nd2.threshold-x2[nd2.feature]) >> 63)
			c2 = c2 + 1 + (nd2.right-c2-1)&m
			nd2 = nodes[c2]
		}
		if nd3.feature != leafFeature {
			m := -int32(math.Float64bits(nd3.threshold-x3[nd3.feature]) >> 63)
			c3 = c3 + 1 + (nd3.right-c3-1)&m
			nd3 = nodes[c3]
		}
	}
	return nd0.threshold, nd1.threshold, nd2.threshold, nd3.threshold
}

// PredictTree returns tree t's prediction alone — the differential oracle's
// unit of comparison.
func (f *Forest) PredictTree(t int, x []float64) float64 {
	return f.traverse(f.roots[t], x)
}

// NumTrees reports how many trees the forest holds.
func (f *Forest) NumTrees() int { return len(f.roots) }

// traverse walks one tree. The descent step selects the child with a
// sign-bit mask instead of a branch: split direction is data-dependent and
// near-random, so a branch would mispredict roughly every other node, and
// the compiler does not convert the if/else inside this loop to CMOV.
// sign(threshold - x) is 0 exactly when x <= threshold (thresholds are
// normalized to never be -0 at build time, and features must be non-NaN),
// which matches the reference engine's `x <= threshold` descent.
func (f *Forest) traverse(i int32, x []float64) float64 {
	nodes := f.nodes
	nd := nodes[i]
	for nd.feature != leafFeature {
		// m is all-ones when x[feature] > threshold (descend right), else 0.
		m := -int32(math.Float64bits(nd.threshold-x[nd.feature]) >> 63)
		i = i + 1 + (nd.right-i-1)&m
		nd = nodes[i]
	}
	return nd.threshold
}
