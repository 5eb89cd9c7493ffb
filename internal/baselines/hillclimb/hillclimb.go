// Package hillclimb reimplements the HillClimbing baseline [3] of §6.1: it
// takes a large library of SQL templates as input and greedily tweaks
// predicate values — accept a move when it brings the query's cost closer to
// the current target interval — restarting from random points on plateaus.
// Intervals are scheduled by the order or priority heuristic, each with a
// bounded evaluation budget.
package hillclimb

import (
	"math/rand"

	"sqlbarber/internal/baselines/baseline"
	"sqlbarber/internal/stats"
)

// Options configures a run.
type Options struct {
	Heuristic baseline.Heuristic
	// BudgetPerInterval is the DBMS evaluation budget of one optimization
	// iteration (the paper's one-hour cap, expressed in evaluations;
	// default 500).
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

// Climb parameters.
const (
	// stepFrac is the initial step as a fraction of each dimension's range.
	stepFrac = 0.1
	// maxStagnation shrinks the step, then restarts the climb, after this
	// many non-improving moves.
	maxStagnation = 12
)

// Stats summarizes a run.
type Stats struct {
	Evaluations int
	Restarts    int
}

// Run executes hill climbing over the environment. The number of
// optimization iterations equals the number of intervals (per §6.1);
// each iteration targets one interval chosen by the heuristic.
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
		climbInterval(env, rng, j, opts.budget(), &st)
	}
	st.Evaluations = env.Evals()
	return st
}

// climbInterval spends one iteration budget pulling queries into interval j.
func climbInterval(env *baseline.Env, rng *rand.Rand, j, budget int, st *Stats) {
	iv := env.Target.Intervals[j]
	spent := 0
	for spent < budget && !env.Exhausted() && env.Deficit(j) > 0 {
		si := rng.Intn(len(env.Spaces))
		spent += climbOnce(env, rng, si, iv, j, budget-spent, st)
	}
}

// climbOnce runs a single greedy climb from a random start, returning the
// evaluations consumed.
func climbOnce(env *baseline.Env, rng *rand.Rand, si int, iv stats.Interval, j int, budget int, st *Stats) int {
	space := env.Spaces[si].BOSpace()
	dims := len(space)
	x := make([]float64, dims)
	for d := range x {
		x[d] = rng.Float64()
	}
	used := 0
	evalAt := func(pt []float64) (float64, bool) {
		if used >= budget {
			return 0, false
		}
		used++
		c, ok := env.Eval(si, space.Denormalize(pt))
		if !ok {
			return 0, false
		}
		return baseline.Objective(c, iv), true
	}
	cur, ok := evalAt(x)
	if !ok {
		return used
	}
	step := stepFrac
	stagnation := 0
	for used < budget && env.Deficit(j) > 0 {
		// Propose: perturb one random dimension by ±step.
		d := rng.Intn(dims)
		next := append([]float64(nil), x...)
		delta := step
		if rng.Intn(2) == 0 {
			delta = -step
		}
		next[d] += delta
		if next[d] < 0 {
			next[d] = 0
		}
		if next[d] > 1 {
			next[d] = 1
		}
		obj, ok := evalAt(next)
		if !ok {
			break
		}
		if obj < cur {
			x, cur = next, obj
			stagnation = 0
			continue
		}
		stagnation++
		if stagnation >= maxStagnation {
			// Plateau: shrink the step once, then restart elsewhere.
			if step > stepFrac/4 {
				step /= 2
				stagnation = 0
				continue
			}
			st.Restarts++
			return used
		}
	}
	return used
}
