// Package rf implements a random-forest regressor (bagged CART trees with
// feature subsampling). It is the surrogate model of SQLBarber's Bayesian
// optimizer (§5.3), standing in for SMAC3's random forest.
//
// The forest is stored flat: every tree is a contiguous run of 16-byte
// flatNode records in one shared []flatNode (preorder, so a split's left
// child is always the next record and only the right-child index is stored).
// Forest.Fit refits a forest in place, reusing its node and root slices, so
// a Bayesian-optimization run that refits one surrogate many times
// allocates its nodes once; Train is Fit into a new Forest.
//
// Trees fit one after another on the caller's goroutine. A tree grows over
// bootstrap positions p (0 ≤ p < n): its targets yb[p] and feature values
// xb[f][p] are gathered once per tree, and feature f's block lists the
// positions stably sorted by that feature — counting-sorted over dense
// feature-value ranks computed once per fit, then kept sorted through every
// split by stable partitioning, so nodes never re-sort. There is no row
// block: a leaf sums its targets over its positions in ascending order,
// which is bootstrap draw order. A single prefix-sum sweep of (count, Σy,
// Σy²) scores every candidate threshold of a feature at a node in O(n).
// Scratch lives in a pooled builder reused across fits, and the builder
// draws feature permutations from its own reseeded prand.Source, so a warm
// refit allocates nothing. reference_test.go keeps a deliberately naive
// pointer-based implementation of the same algorithm as the
// differential-testing oracle and the baseline of BenchmarkForestVsReference.
package rf

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sync"

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
	// Workers has no effect: trees always fit serially on the calling
	// goroutine. The field remains because the benchmark harness
	// (bench/trace.go) sets it.
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

// Forest is a trained random-forest regressor. The zero value is an empty
// forest, ready for Fit.
type Forest struct {
	nodes []flatNode
	roots []int32 // per-tree root index into nodes
}

// Train fits a new forest to (X, y); see Fit.
func Train(rng *rand.Rand, X [][]float64, y []float64, opts Options) *Forest {
	f := new(Forest)
	f.Fit(rng, X, y, opts)
	return f
}

// Fit replaces f's trees with a forest fitted to (X, y), reusing f's node
// and root slices when they are large enough. X rows must share one length.
// Tree by tree, it draws the bootstrap sample and then the tree's stream
// seed from rng, so the forest is a function of the rng state and the data
// alone, and bit-identical to a fresh Train from the same state. Fit must
// not run concurrently with other use of f.
func (f *Forest) Fit(rng *rand.Rand, X [][]float64, y []float64, opts Options) {
	opts = opts.withDefaults()
	f.nodes, f.roots = f.nodes[:0], f.roots[:0]
	if len(X) == 0 {
		return
	}
	n := len(X)
	f.roots = resize(f.roots, opts.NumTrees)
	if cap(f.nodes) == 0 {
		// A first fit reserves the worst case (every leaf but a lone root
		// holds at least MinLeafSize samples), so a one-off Train allocates
		// its nodes once. A refit appends into the capacity it has, which
		// grows geometrically and soon covers every later fit.
		leaves := max(1, n/opts.MinLeafSize)
		if opts.MaxDepth < 30 {
			leaves = min(leaves, 1<<opts.MaxDepth)
		}
		f.nodes = make([]flatNode, 0, opts.NumTrees*(2*leaves-1))
	}
	b := getBuilder()
	defer b.release()
	b.reset(f, X, y, opts)
	for t := range f.roots {
		for p := range b.boot {
			b.boot[p] = int32(rng.Intn(n))
		}
		f.roots[t] = int32(len(f.nodes))
		b.build(rng.Int63())
	}
}

// builders recycles fit scratch across calls: BO refits a small forest after
// every few observations, so fresh buffers would otherwise cost more than
// the split search itself. It is a free list, last returned first out,
// rather than a sync.Pool, so which scratch a call gets, and so what it
// allocates, depends only on the order of the calls, not on the goroutine's
// P or on GC timing.
var builders struct {
	sync.Mutex
	free []*builder
}

// getBuilder takes the most recently released builder, or a new one.
func getBuilder() *builder {
	builders.Lock()
	defer builders.Unlock()
	if k := len(builders.free); k > 0 {
		b := builders.free[k-1]
		builders.free[k-1] = nil
		builders.free = builders.free[:k-1]
		return b
	}
	return new(builder)
}

// release drops the builder's references to the caller's data and returns
// it to the free list.
func (b *builder) release() {
	b.f, b.X, b.y = nil, nil, nil
	builders.Lock()
	builders.free = append(builders.free, b)
	builders.Unlock()
}

// resize returns s with length n, reusing its backing array when it fits.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// builder owns all scratch state of one fit. It is pooled, so its buffers
// are reused across trees and across fits; the per-node recursion never
// allocates (pinned by barbervet rule R010), and it appends nodes straight
// into the forest being fitted.
type builder struct {
	f     *Forest
	X     [][]float64 // features, read-only
	y     []float64   // targets, read-only
	n     int         // sample count (= bootstrap size)
	dims  int
	nFeat int // features drawn per split
	opts  Options
	// ranks[f*n+i] is the dense rank of X[i][f] among column f's distinct
	// values (== ties, so -0 and +0 share a rank). Tree presorts are counting
	// sorts over these.
	ranks []int32
	idx   []int32 // rank computation scratch

	// boot[p] is the row drawn at bootstrap position p; yb[p] = y[boot[p]]
	// and xb[f*n+p] = X[boot[p]][f] are gathered once per tree.
	boot []int32
	yb   []float64
	xb   []float64
	// order holds one block of n positions per feature (one identity block
	// when there are no features). Block f is the tree's positions stably
	// sorted by feature f; every node is a segment [lo, hi) of each block.
	order    []int32
	scratch  []int32   // right-half staging for stable partition; leaf sort
	counts   []int32   // counting-sort bucket offsets, one per rank
	vals, ys []float64 // per-node gather buffers for the score sweep
	featPerm []int     // persistent permutation for per-node feature draws
	// src is reseeded per tree, so a tree's feature draws are exactly
	// prand.New(seed)'s (see intn) without a generator per tree.
	src prand.Source
}

func (b *builder) reset(forest *Forest, X [][]float64, y []float64, opts Options) {
	n, dims := len(X), len(X[0])
	b.f, b.X, b.y = forest, X, y
	b.n, b.dims, b.opts = n, dims, opts
	b.nFeat = int(math.Ceil(featureFrac * float64(dims)))
	b.ranks = resize(b.ranks, dims*n)
	b.idx = resize(b.idx, n)
	for f := 0; f < dims; f++ {
		for i := range b.idx {
			b.idx[i] = int32(i)
		}
		slices.SortFunc(b.idx, func(a, c int32) int { return cmp.Compare(X[a][f], X[c][f]) })
		rank, ranks := int32(0), b.ranks[f*n:(f+1)*n]
		for k, i := range b.idx {
			if k > 0 && X[i][f] != X[b.idx[k-1]][f] {
				rank++
			}
			ranks[i] = rank
		}
	}
	b.boot = resize(b.boot, n)
	b.yb = resize(b.yb, n)
	b.xb = resize(b.xb, dims*n)
	b.order = resize(b.order, max(dims, 1)*n)
	b.scratch = resize(b.scratch, n)
	b.counts = resize(b.counts, n+1)
	b.vals = resize(b.vals, n)
	b.ys = resize(b.ys, n)
	b.featPerm = resize(b.featPerm, dims)
}

// block returns the position block sorted by feature f.
func (b *builder) block(f int) []int32 {
	return b.order[f*b.n : (f+1)*b.n]
}

// build fits one tree on the bootstrap sample in b.boot, drawing features
// from the stream prand.New(seed) would give, and appends its nodes to the
// forest.
func (b *builder) build(seed int64) {
	b.src.Seed(prand.Mix(seed))
	for f := range b.featPerm {
		b.featPerm[f] = f
	}
	b.presort()
	b.grow(0, b.n, 0, 0)
}

// intn is math/rand's (*Rand).Intn on b.src, draw for draw, for
// 0 < n < 2³¹: a power of two masks one Int31, anything else rejects
// Int31 draws above the largest multiple of n.
func (b *builder) intn(n int) int {
	m := int32(n)
	if m&(m-1) == 0 {
		return int(int32(b.src.Int63()>>32) & (m - 1))
	}
	limit := int32((1 << 31) - 1 - (1<<31)%uint32(m))
	v := int32(b.src.Int63() >> 32)
	for v > limit {
		v = int32(b.src.Int63() >> 32)
	}
	return int(v % m)
}

// presort gathers the tree's targets and feature values by position and
// fills each feature block by a stable counting sort on that feature's
// ranks. Ties keep position (bootstrap) order, so each block is exactly the
// permutation sort.SliceStable(<) gives, and every node's sweep sees the
// same (value, y) sequence the reference oracle produces — in O(n) per
// feature.
func (b *builder) presort() {
	n := b.n
	for p, i := range b.boot {
		b.yb[p] = b.y[i]
		for f, v := range b.X[i] {
			b.xb[f*n+p] = v
		}
	}
	if b.dims == 0 {
		for p := range b.order {
			b.order[p] = int32(p)
		}
	}
	for f := 0; f < b.dims; f++ {
		ranks := b.ranks[f*n : (f+1)*n]
		counts := b.counts
		clear(counts)
		for _, i := range b.boot {
			counts[ranks[i]+1]++
		}
		for r := 1; r < len(counts); r++ {
			counts[r] += counts[r-1]
		}
		blk := b.block(f)
		for p, i := range b.boot {
			r := ranks[i]
			blk[counts[r]] = int32(p)
			counts[r]++
		}
	}
}

// grow fits the node over positions [lo, hi) and returns its index. Block
// own's segment always holds the node's positions; every other block's does
// too unless the parent skipped partitioning because neither child could
// split, in which case the node is a leaf and reads only block own.
// Preorder: the left subtree is emitted immediately after the node, so only
// the right-child index needs storing.
func (b *builder) grow(lo, hi, depth, own int) int32 {
	seg := b.block(own)[lo:hi]
	if !b.canSplit(len(seg), depth) {
		return b.leaf(seg, false)
	}
	if b.pure(seg) {
		return b.leaf(seg, true)
	}
	n := b.n
	bestFeat, bestTh, bestScore, bestLn := -1, 0.0, math.Inf(1), 0
	for k := 0; k < b.nFeat; k++ {
		// Partial Fisher-Yates over the persistent permutation: nFeat draws
		// per node, no rng.Perm allocation.
		j := k + b.intn(b.dims-k)
		b.featPerm[k], b.featPerm[j] = b.featPerm[j], b.featPerm[k]
		f := b.featPerm[k]
		fseg := b.block(f)[lo:hi]
		xf := b.xb[f*n : (f+1)*n]
		if xf[fseg[0]] == xf[fseg[len(fseg)-1]] {
			continue // constant on this node: no threshold separates it
		}
		for m, p := range fseg {
			b.vals[m] = xf[p]
			b.ys[m] = b.yb[p]
		}
		th, score, ln := bestThreshold(b.vals[:len(seg)], b.ys[:len(seg)], b.opts.MinLeafSize)
		if ln > 0 && score < bestScore {
			bestFeat, bestTh, bestScore, bestLn = f, th, score, ln
		}
	}
	if bestFeat < 0 {
		return b.leaf(seg, false)
	}
	// The winning block is split already: its first bestLn positions are
	// the left child. The others need partitioning only if a child will
	// search for a split of its own.
	if b.canSplit(bestLn, depth+1) || b.canSplit(len(seg)-bestLn, depth+1) {
		b.partition(lo, hi, bestFeat, bestTh)
	}
	if bestTh == 0 {
		// Store -0 as +0: traversal picks the child via the sign bit of
		// threshold-x, and sign(-0 - +0) would send an x == threshold == 0
		// row right when `x <= threshold` says left. Numerically identical,
		// so partition and the reference engine are unaffected.
		bestTh = 0
	}
	self := int32(len(b.f.nodes))
	b.f.nodes = append(b.f.nodes, flatNode{feature: int32(bestFeat), threshold: bestTh})
	mid := lo + bestLn
	b.grow(lo, mid, depth+1, bestFeat) // left child lands at self+1
	right := b.grow(mid, hi, depth+1, bestFeat)
	b.f.nodes[self].right = right
	return self
}

// canSplit reports whether a node of size samples at depth may search for
// a split at all.
func (b *builder) canSplit(size, depth int) bool {
	return depth < b.opts.MaxDepth && size >= 2*b.opts.MinLeafSize
}

func (b *builder) pure(seg []int32) bool {
	first := b.yb[seg[0]]
	for _, p := range seg[1:] {
		if b.yb[p] != first {
			return false
		}
	}
	return true
}

// leaf appends a leaf predicting the mean target over seg's positions. The
// sum runs in ascending position order (bootstrap draw order, the order the
// reference sums in); a pure segment sums equal values, so its order cannot
// matter and its sort is skipped.
func (b *builder) leaf(seg []int32, pure bool) int32 {
	if !pure {
		sorted := b.scratch[:len(seg)]
		copy(sorted, seg)
		slices.Sort(sorted)
		seg = sorted
	}
	sum := 0.0
	for _, p := range seg {
		sum += b.yb[p]
	}
	self := int32(len(b.f.nodes))
	b.f.nodes = append(b.f.nodes, flatNode{feature: leafFeature, threshold: sum / float64(len(seg))})
	return self
}

// partition stably splits positions [lo, hi) of every block but feat's on
// x[feat] <= th, in place via the scratch buffer. Stability preserves each
// block's sort invariant across the split; feat's own block, sorted on the
// split feature, is split already.
func (b *builder) partition(lo, hi, feat int, th float64) {
	xf := b.xb[feat*b.n : (feat+1)*b.n]
	for blk := 0; blk < b.dims; blk++ {
		if blk == feat {
			continue
		}
		seg := b.block(blk)[lo:hi]
		w, nr := 0, 0
		for _, p := range seg {
			if xf[p] <= th {
				seg[w] = p
				w++
			} else {
				b.scratch[nr] = p
				nr++
			}
		}
		copy(seg[w:], b.scratch[:nr])
	}
}

// bestThreshold scores every candidate split of one feature in a single
// sweep. vals must be ascending with ys aligned (the feature's stably sorted
// view of the node's samples). Running prefix sums of (count, Σy, Σy²) give
// each boundary's splitScore in O(1), so the whole node costs O(n) per
// feature after the per-tree presort. Thresholds are the left group's
// maximum value; only splits leaving at least minLeaf samples per side are
// considered. ln is the left group's size, 0 when no split qualifies.
func bestThreshold(vals, ys []float64, minLeaf int) (thresh, score float64, ln int) {
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
		if k+1 < minLeaf || m-k-1 < minLeaf {
			continue
		}
		if s := splitScore(ls, lss, k+1, total-ls, totalSq-lss, m-k-1); s < score {
			thresh, score, ln = vals[k], s, k+1
		}
	}
	return thresh, score, ln
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
