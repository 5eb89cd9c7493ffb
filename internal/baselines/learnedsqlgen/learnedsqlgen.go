// Package learnedsqlgen reimplements the LearnedSQLGen baseline [29] of
// §6.1 at reduced scale: a reinforcement-learning query generator that
// learns, by tabular Q-learning over discretized cost states, which
// templates and predicate adjustments move query costs into a target
// interval. Like the original, it must sample the DBMS heavily to capture
// the relationship among templates, predicate values, and costs — which is
// exactly the inefficiency SQLBarber's profiling+BO design removes.
package learnedsqlgen

import (
	"math/rand"

	"sqlbarber/internal/baselines/baseline"
	"sqlbarber/internal/stats"
)

// Options configures a run.
type Options struct {
	Heuristic baseline.Heuristic
	// BudgetPerInterval is the DBMS evaluation budget per optimization
	// iteration (default 500).
	BudgetPerInterval int
	Seed              int64
}

// budget is BudgetPerInterval, or 500 when it is not positive.
func (o Options) budget() int {
	if o.BudgetPerInterval <= 0 {
		return 500
	}
	return o.BudgetPerInterval
}

// Q-learning parameters.
const (
	alpha       = 0.3 // learning rate
	gamma       = 0.9 // discount factor
	epsilon     = 0.2 // initial exploration rate, decaying per episode
	episodeLen  = 12  // steps per episode
	costBuckets = 16  // discretization of the cost axis for the state space
)

// Stats summarizes a run.
type Stats struct {
	Evaluations int
	Episodes    int
}

// action encodes (dimension, direction, magnitude-class).
type action struct {
	dim int
	dir int // -1 or +1
	mag int // 0: small (0.05), 1: large (0.25)
}

func (a action) delta() float64 {
	d := 0.05
	if a.mag == 1 {
		d = 0.25
	}
	return float64(a.dir) * d
}

// qKey is one Q-table entry: template, discretized cost bucket, action.
type qKey struct {
	template int
	bucket   int
	act      action
}

// Run executes the RL generator over the environment, one learning phase
// per interval in heuristic order.
func Run(env *baseline.Env, opts Options) Stats {
	rng := rand.New(rand.NewSource(opts.Seed))
	var st Stats
	iterations := len(env.Target.Intervals)
	for it := 0; it < iterations && !env.Exhausted(); it++ {
		schedule := env.Schedule(opts.Heuristic)
		if len(schedule) == 0 {
			break
		}
		j := schedule[0]
		if opts.Heuristic == baseline.Order {
			j = schedule[it%len(schedule)]
		}
		learnInterval(env, rng, j, opts.budget(), &st)
	}
	st.Evaluations = env.Evals()
	return st
}

// learnInterval runs Q-learning episodes targeting interval j until the
// iteration budget is spent or the interval is filled.
func learnInterval(env *baseline.Env, rng *rand.Rand, j, budget int, st *Stats) {
	iv := env.Target.Intervals[j]
	rangeHi := env.Target.Intervals.Hi()
	q := map[qKey]float64{}
	bucketOf := func(c float64) int {
		if c >= rangeHi {
			return costBuckets
		}
		b := int(c / rangeHi * float64(costBuckets))
		if b < 0 {
			b = 0
		}
		return b
	}
	spent := 0
	eps := epsilon
	for spent < budget && !env.Exhausted() && env.Deficit(j) > 0 {
		st.Episodes++
		si := rng.Intn(len(env.Spaces))
		space := env.Spaces[si].BOSpace()
		dims := len(space)
		x := make([]float64, dims)
		for d := range x {
			x[d] = rng.Float64()
		}
		cost, ok := env.Eval(si, space.Denormalize(x))
		spent++
		if !ok {
			continue
		}
		state := bucketOf(cost)
		for step := 0; step < episodeLen && spent < budget && !env.Exhausted(); step++ {
			if iv.Contains(cost) {
				break // goal reached; query already recorded by Eval
			}
			a := chooseAction(q, rng, si, state, dims, eps)
			x[a.dim] += a.delta()
			if x[a.dim] < 0 {
				x[a.dim] = 0
			}
			if x[a.dim] > 1 {
				x[a.dim] = 1
			}
			newCost, ok := env.Eval(si, space.Denormalize(x))
			spent++
			if !ok {
				break
			}
			reward := rewardOf(newCost, iv, rangeHi)
			newState := bucketOf(newCost)
			// Q-update with the max over next-state actions.
			best := bestQ(q, si, newState, dims)
			k := qKey{si, state, a}
			q[k] += alpha * (reward + gamma*best - q[k])
			state, cost = newState, newCost
		}
		eps *= 0.995 // decay exploration as learning progresses
	}
}

func rewardOf(c float64, iv stats.Interval, rangeHi float64) float64 {
	if iv.Contains(c) {
		return 1
	}
	return -iv.Dist(c) / rangeHi
}

func chooseAction(q map[qKey]float64, rng *rand.Rand, si, state, dims int, eps float64) action {
	if rng.Float64() < eps {
		return action{dim: rng.Intn(dims), dir: 2*rng.Intn(2) - 1, mag: rng.Intn(2)}
	}
	bestA := action{dim: 0, dir: 1, mag: 0}
	bestV := -1e18
	for d := 0; d < dims; d++ {
		for _, dir := range []int{-1, 1} {
			for mag := 0; mag < 2; mag++ {
				a := action{d, dir, mag}
				if v := q[qKey{si, state, a}]; v > bestV {
					bestV, bestA = v, a
				}
			}
		}
	}
	return bestA
}

func bestQ(q map[qKey]float64, si, state, dims int) float64 {
	best := 0.0
	found := false
	for d := 0; d < dims; d++ {
		for _, dir := range []int{-1, 1} {
			for mag := 0; mag < 2; mag++ {
				v := q[qKey{si, state, action{d, dir, mag}}]
				if !found || v > best {
					best, found = v, true
				}
			}
		}
	}
	return best
}
