// Package search implements §5.3, Algorithm 3: BO-based predicate search.
// It repeatedly targets the cost interval with the largest gap between the
// target and current distributions, ranks templates by closeness, filters
// out bad combinations, exhausted search spaces, and low-diversity
// templates, and runs a random-forest-surrogate Bayesian optimization over
// each chosen template's predicate space, minimizing the Equation (5)
// distance-to-interval objective. Utility-ratio tracking (Equation 6), bad
// combinations, failure counters, and skip intervals keep effort focused on
// feasible intervals.
//
// Parallelism is deterministic by construction: each round's selected
// templates are processed in fixed-size waves, every wave slot owns a random
// stream derived from (Seed, StageSearch, round, slot), BO runs record their
// probes locally, and results merge into the shared distribution in slot
// order. A `Parallel: N` run is therefore byte-identical to the
// sequential one — worker count only changes which goroutine executes a
// slot, never what the slot computes.
package search

import (
	"context"
	"math/rand"
	"sort"
	"strconv"

	"sqlbarber/internal/bo"
	"sqlbarber/internal/engine"
	"sqlbarber/internal/fanout"
	"sqlbarber/internal/obs"
	"sqlbarber/internal/prand"
	"sqlbarber/internal/profiler"
	"sqlbarber/internal/sqltypes"
	"sqlbarber/internal/stats"
	"sqlbarber/internal/workload"
)

// Algorithm 3's parameters, fixed at the paper's values.
const (
	budgetFactor     = 5    // per-template BO budget is budgetFactor·Δ*
	maxBudget        = 150  // cap on one BO run's evaluations
	sampleSize       = 10   // weighted sample of candidate templates per interval
	uniformSample    = 1000 // sample size under Searcher.UniformTemplates
	utilityThreshold = 0.05 // Equation (6) ratio below which a combination is bad
	maxFailures      = 5    // fruitless rounds before an interval is skipped
	spaceFactor      = 5    // a template needs R[T] >= spaceFactor·Δ*
	minVariety       = 0.05 // LimitedDiversity filter
	maxRounds        = 500  // global safety valve on while-loop rounds
	// batchSize is the wave width: how many selected templates are
	// optimized with budgets and streams frozen together before the
	// distribution updates. It is an algorithm parameter — changing it
	// changes results — whereas Searcher.Parallel is pure scheduling and
	// never does.
	batchSize = 4
)

// Stats reports a search run's behaviour.
type Stats struct {
	Rounds           int
	Evaluations      int
	SkippedIntervals int
	BadCombinations  int
}

// Searcher runs Algorithm 3 under one cost metric. Every probe goes through
// its template's prepared statement (profiler.Profile.Prep), so the database
// searched is the one the templates were profiled against.
type Searcher struct {
	Kind engine.CostKind
	// Seed drives the optimizer's randomness.
	Seed int64
	// Naive replaces BO with pure random search (ablation "Naive-Search").
	Naive bool
	// UniformTemplates widens the closeness-weighted template sample to
	// uniformSample, so weighting stops mattering (ablation).
	UniformTemplates bool
	// Parallel runs each wave's template optimizations on this many
	// goroutines; zero or one runs them on the caller's goroutine. Results
	// are byte-identical for every value: wave membership, budgets, and
	// random streams are fixed before the wave starts, and probe results
	// merge in slot order afterwards.
	Parallel int
	// Progress, when non-nil, is called after every round; the caller reads
	// the pool it passed to Run (used to record distance-over-time curves).
	Progress func()
}

type comboKey struct {
	interval int
	template int
}

// optResult is the private record of one wave slot's BO run: every probe is
// staged here and merged into the shared distribution in slot order once the
// whole wave has finished, so merge order never depends on goroutine timing.
type optResult struct {
	obs []profiler.Observation
	// hits counts the staged probes answered from the template's cost memo
	// instead of the DBMS; they are staged like any other probe.
	hits int
}

// Run adds generated queries to the pool until its target distribution is
// filled, no improvable interval remains, or the context is cancelled. The
// pool's queries so far (e.g. from profiling) are the starting distribution
// d: Algorithm 3 works on the pool's counts, which it never owns a copy of.
func (s *Searcher) Run(ctx context.Context, templates []*workload.TemplateState, pool *workload.Pool) Stats {
	ctx, ssp := obs.StartSpan(ctx, "search")
	defer ssp.End()
	var st Stats
	target := pool.Target()

	bad := map[comboKey]bool{}
	skip := map[int]bool{}
	failures := map[int]int{}
	revivals := 0
	remaining := map[int]float64{}
	var scorer workload.Scorer
	for _, t := range templates {
		if t.Profile.Space != nil {
			remaining[t.Profile.Template.ID] = t.Profile.Space.Size()
		}
	}

	for st.Rounds < maxRounds && ctx.Err() == nil {
		st.Rounds++
		ssp.Count(obs.MSearchRounds, 1)
		rsp := ssp.StartSpan("search:round", obs.A("round", strconv.Itoa(st.Rounds)))
		round := int64(st.Rounds)
		// Per-round stream for selection decisions (shuffle, weighted sample).
		roundRng := prand.New(s.Seed, prand.StageSearch, round)
		// Find the interval with the largest gap.
		jStar, gap := -1, 0
		for j, want := range target.Counts {
			if skip[j] {
				continue
			}
			if g := want - pool.Count(j); g > gap {
				gap = g
				jStar = j
			}
		}
		if jStar < 0 || gap <= 0 {
			// All improvable intervals are exhausted or skipped. Skipped
			// intervals get a limited second chance: observations gathered
			// since (new templates, fresh profiling points) may have made
			// them reachable.
			if jStar < 0 && revivals < 2 && anyDeficit(pool, skip) {
				skip = map[int]bool{}
				failures = map[int]int{}
				revivals++
				rsp.Annotate(obs.A("outcome", "revival"))
				rsp.End()
				continue
			}
			rsp.End()
			break
		}
		iv := target.Intervals[jStar]
		rsp.Annotate(obs.A("interval", strconv.Itoa(jStar)))

		// Rank templates by closeness and filter (Algorithm 3 lines 8-12).
		// The Naive-Search ablation skips the closeness machinery entirely:
		// it cannot select templates for specific cost ranges (§6.4).
		var cands []scoredTemplate
		for _, t := range templates {
			if t.Profile.Space == nil || len(t.Profile.Space.Dims) == 0 {
				continue
			}
			if bad[comboKey{jStar, t.Profile.Template.ID}] {
				continue
			}
			score := 1.0
			if !s.Naive {
				if remaining[t.Profile.Template.ID] < float64(spaceFactor*gap) {
					continue
				}
				var variety float64
				if score, variety = scorer.Closeness(t.Profile.Obs, iv); variety < minVariety {
					continue
				}
			}
			cands = append(cands, scoredTemplate{t, score})
		}
		if len(cands) == 0 {
			skip[jStar] = true
			st.SkippedIntervals++
			ssp.Count(obs.MSearchSkipped, 1)
			rsp.Annotate(obs.A("outcome", "no-candidates"))
			rsp.End()
			continue
		}
		if !s.Naive {
			sort.SliceStable(cands, func(i, j int) bool { return cands[i].score > cands[j].score })
		} else {
			roundRng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		}
		n := sampleSize
		if s.UniformTemplates {
			n = uniformSample
		}
		selected := weightedSample(roundRng, cands, n)

		improved := false
		// Process the selection in fixed-size waves. Budgets and random
		// streams freeze at wave start; slots run concurrently (bounded by
		// Searcher.Parallel) against private result buffers; the merge below
		// replays the slots in order.
		for lo := 0; lo < len(selected); lo += batchSize {
			if pool.Count(jStar) >= target.Counts[jStar] || ctx.Err() != nil {
				break
			}
			hi := lo + batchSize
			if hi > len(selected) {
				hi = len(selected)
			}
			wave := selected[lo:hi]
			budget := budgetFor(target.Counts[jStar] - pool.Count(jStar))
			results := make([]optResult, len(wave))

			waveCtx := obs.NewContext(ctx, rsp)
			_ = fanout.Run(s.Parallel, len(wave), func(_, k int) error {
				slotRng := prand.New(s.Seed, prand.StageSearch, round, int64(lo+k))
				results[k] = s.optimizeTemplate(waveCtx, slotRng, wave[k].t, iv, budget)
				return nil
			})

			// Ordered merge: identical regardless of which goroutine ran
			// which slot.
			for k, c := range wave {
				res := results[k]
				id := c.t.Profile.Template.ID
				dOld := pool.Count(jStar)
				st.Evaluations += len(res.obs)
				ssp.Count(obs.MSearchEvals, int64(len(res.obs)))
				ssp.Count(obs.MSearchMemoHits, int64(res.hits))
				c.t.Profile.Obs = append(c.t.Profile.Obs, res.obs...)
				for _, o := range res.obs {
					pool.Add(workload.Query{SQL: o.SQL, Cost: o.Cost, TemplateID: id})
				}
				remaining[id] -= float64(len(res.obs))
				if pool.Count(jStar) > dOld {
					improved = true
				}
				// Utility ratio (Equation 6): fraction of new costs that
				// filled any still-deficient interval.
				if len(res.obs) > 0 {
					useful := 0
					for _, o := range res.obs {
						if j := target.Intervals.Index(o.Cost); j >= 0 && pool.Count(j) <= target.Counts[j] {
							useful++
						}
					}
					if float64(useful)/float64(len(res.obs)) < utilityThreshold {
						bad[comboKey{jStar, id}] = true
						st.BadCombinations++
						ssp.Count(obs.MSearchBadCombos, 1)
					}
				}
			}
		}
		if !improved {
			failures[jStar]++
			if failures[jStar] >= maxFailures {
				skip[jStar] = true
				st.SkippedIntervals++
				ssp.Count(obs.MSearchSkipped, 1)
			}
		}
		rsp.End()
		if s.Progress != nil {
			s.Progress()
		}
	}
	return st
}

// budgetFor scales the BO budget to the interval's deficit.
func budgetFor(gap int) int {
	budget := budgetFactor * gap
	if budget > maxBudget {
		budget = maxBudget
	}
	if budget < 4 {
		budget = 4
	}
	return budget
}

// optimizeTemplate runs one BO (or random, for the ablation) search over a
// template's predicate space, minimizing Equation (5) for the interval.
// Probes go through the template's prepared statement (compiled once at
// profile time, evaluated per probe without re-planning) and are staged in
// the returned optResult; the caller merges them into shared state in slot order.
func (s *Searcher) optimizeTemplate(ctx context.Context, rng *rand.Rand, t *workload.TemplateState, iv stats.Interval, budget int) optResult {
	sp := obs.FromContext(ctx).StartSpan("search:slot",
		obs.A("template", strconv.Itoa(t.Profile.Template.ID)),
		obs.A("budget", strconv.Itoa(budget)))
	defer sp.End()
	sp.Observe(obs.HSearchBudget, float64(budget))
	space := t.Profile.Space
	boSpace := space.BOSpace()

	// Warm start: re-score the template's historical observations under the
	// current interval (no DBMS calls needed — costs are already known).
	var warm []bo.Observation
	for _, ob := range t.Profile.Obs {
		if ob.Raw == nil {
			continue
		}
		warm = append(warm, bo.Observation{
			X: boSpace.Normalize(ob.Raw),
			Y: objective(ob.Cost, iv),
		})
	}
	if len(warm) > 32 {
		// Keep the most promising history to bound surrogate training time.
		sort.SliceStable(warm, func(i, j int) bool { return warm[i].Y < warm[j].Y })
		warm = warm[:32]
	}

	probe := &slotProbe{ctx: ctx, kind: s.Kind, prof: t.Profile, iv: iv, vals: make(map[string]sqltypes.Value, len(space.Dims))}
	if s.Naive {
		for range budget {
			x := make([]float64, len(boSpace))
			for d := range x {
				x[d] = rng.Float64()
			}
			probe.evaluate(boSpace.Denormalize(x))
		}
		return probe.res
	}
	// bo fits its forest serially inside each slot: the search waves
	// already parallelize across templates.
	bo.New(boSpace, rng, warm).Run(budget, probe.evaluate)
	return probe.res
}

// slotProbe evaluates one slot's probes. Probes go through the template's
// cost memo: a query the template has already costed takes that cost
// instead of a DBMS call, and is staged and reported to BO as if it were
// probed. One binding map serves every probe of the slot: the prepared
// statement binds from it without keeping it.
type slotProbe struct {
	ctx  context.Context
	kind engine.CostKind
	prof *profiler.Profile
	iv   stats.Interval
	vals map[string]sqltypes.Value
	res  optResult
}

// evaluate is the BO objective: the Equation (5) distance of the cost of
// the query raw instantiates, or false when it cannot be costed.
func (p *slotProbe) evaluate(raw []float64) (float64, bool) {
	prof := p.prof
	vals := prof.Space.ValuesInto(p.vals, raw)
	sql, err := prof.Space.Template.Instantiate(vals)
	if err != nil {
		return 0, false
	}
	cost, known := prof.Known(sql)
	if known {
		// A hit fails like a probe once the run is cancelled.
		if p.ctx.Err() != nil {
			return 0, false
		}
		p.res.hits++
	} else {
		if cost, err = prof.Prep.Cost(p.ctx, vals, p.kind); err != nil {
			return 0, false
		}
		prof.Remember(sql, cost)
	}
	p.res.obs = append(p.res.obs, profiler.Observation{Raw: raw, SQL: sql, Cost: cost})
	return objective(cost, p.iv), true
}

// objective is Equation (5): 0 inside [cl, cr], otherwise a relative
// distance in (0, 1].
func objective(c float64, iv stats.Interval) float64 {
	cl, cr := iv.Lo, iv.Hi
	if c >= cl && c <= cr {
		return 0
	}
	ratio := func(a, b float64) float64 {
		if a == 0 && b == 0 {
			return 1
		}
		if a == 0 || b == 0 {
			return 0
		}
		r := a / b
		if r > 1 {
			r = b / a
		}
		return r
	}
	m := ratio(c, cl)
	if r := ratio(c, cr); r > m {
		m = r
	}
	return 1 - m
}

// anyDeficit reports whether a skipped interval still wants queries.
func anyDeficit(pool *workload.Pool, skip map[int]bool) bool {
	for j, want := range pool.Target().Counts {
		if skip[j] && want > pool.Count(j) {
			return true
		}
	}
	return false
}

// scoredTemplate pairs a template with its closeness score.
type scoredTemplate struct {
	t     *workload.TemplateState
	score float64
}

// weightedSample draws up to n candidates with probability proportional to
// their closeness scores, without replacement.
func weightedSample(rng *rand.Rand, cands []scoredTemplate, n int) []scoredTemplate {
	if len(cands) <= n {
		return cands
	}
	pool := append([]scoredTemplate(nil), cands...)
	var out []scoredTemplate
	for len(out) < n && len(pool) > 0 {
		total := 0.0
		for _, c := range pool {
			total += c.score
		}
		pick := len(pool) - 1
		if total > 0 {
			r := rng.Float64() * total
			acc := 0.0
			for i, c := range pool {
				acc += c.score
				if r <= acc {
					pick = i
					break
				}
			}
		} else {
			pick = rng.Intn(len(pool))
		}
		out = append(out, pool[pick])
		pool = append(pool[:pick], pool[pick+1:]...)
	}
	return out
}
