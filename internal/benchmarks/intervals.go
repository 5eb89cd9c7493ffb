package benchmarks

import (
	"context"
	"fmt"
	"io"
	"time"

	"sqlbarber/internal/analyzer/intervals"
	"sqlbarber/internal/engine"
	"sqlbarber/internal/llm"
	"sqlbarber/internal/obs"
	"sqlbarber/internal/pipeline"
	"sqlbarber/internal/plan"
	"sqlbarber/internal/prand"
	"sqlbarber/internal/profiler"
	"sqlbarber/internal/stats"
)

// intervalsSavingsFloor is the acceptance gate: the static cost-interval
// stage must eliminate at least this fraction of the baseline run's
// profiling probes on the seed corpus.
const intervalsSavingsFloor = 0.20

// intervalsFalsePruneProbes is how many dense verification probes each
// pruned template receives when the benchmark hunts for false prunes.
const intervalsFalsePruneProbes = 128

// IntervalsPoint is one (worker count) row of the intervals experiment.
type IntervalsPoint struct {
	Workers  int     `json:"workers"`
	MS       int64   `json:"elapsed_ms"`
	DBCalls  int64   `json:"db_calls"`
	Distance float64 `json:"distance"`
	Hash     string  `json:"workload_hash"`
}

// IntervalsBenchResult is the JSON artifact -exp intervals writes
// (BENCH_intervals.json).
type IntervalsBenchResult struct {
	CostKind         string           `json:"cost_kind"`
	TargetLo         float64          `json:"target_lo"`
	TargetHi         float64          `json:"target_hi"`
	Templates        int              `json:"valid_templates"`
	Pruned           int              `json:"pruned_templates"`
	Flat             int              `json:"flat_templates"`
	BaselineProbes   int64            `json:"baseline_profile_probes"`
	IntervalsProbes  int64            `json:"intervals_profile_probes"`
	ProbesSaved      int64            `json:"probes_saved"`
	SavedCounter     int64            `json:"probes_saved_counter"`
	SavedFraction    float64          `json:"saved_fraction"`
	FalsePruneProbes int              `json:"false_prune_probes_per_template"`
	BaselineDistance float64          `json:"baseline_distance"`
	BaselineHash     string           `json:"baseline_workload_hash"`
	Points           []IntervalsPoint `json:"points"`
	// BoundsNSPerCall and BoundsAllocsPerCall are the absolute cost of one
	// plan.EstimateBounds call: the best of boundsRounds passes over every
	// valid template of the first intervals arm at its full slot domains.
	BoundsNSPerCall     float64 `json:"bounds_ns_per_call"`
	BoundsAllocsPerCall float64 `json:"bounds_allocs_per_call"`
}

// boundsRounds and boundsPasses size the EstimateBounds timing: each round
// bounds every template boundsPasses times, and the best round is kept.
const (
	boundsRounds = 3
	boundsPasses = 50
)

// boundsCallCost times plan.EstimateBounds on every valid template of res,
// each compiled once at the slot domains intervals.Analyze bounds, and
// returns the best per-call wall time and heap-allocation count
// over boundsRounds rounds.
func (r *Runner) boundsCallCost(res *pipeline.Result) (nsPerCall, allocsPerCall float64, err error) {
	schema := TPCH.Open(r.Seed, r.Scale.SF).Schema()
	type boundsCase struct {
		cq      *plan.CompiledQuery
		domains map[string]plan.ParamDomain
	}
	var cases []boundsCase
	for _, gr := range res.GenResults {
		if !gr.Valid || gr.Template == nil {
			continue
		}
		cq, _, domains, err := intervals.Compile(schema, gr.Template)
		if err != nil {
			continue // Analyze reports such a template unavailable
		}
		cases = append(cases, boundsCase{cq, domains})
	}
	if len(cases) == 0 {
		return 0, 0, fmt.Errorf("benchmarks: no valid template to bound")
	}
	pass := func() error {
		for _, c := range cases {
			if _, err := c.cq.EstimateBounds(c.domains); err != nil {
				return err
			}
		}
		return nil
	}
	if err := pass(); err != nil { // warm-up
		return 0, 0, err
	}
	calls := float64(boundsPasses * len(cases))
	for round := 0; round < boundsRounds; round++ {
		before := mallocs()
		start := time.Now()
		for i := 0; i < boundsPasses; i++ {
			if err := pass(); err != nil {
				return 0, 0, err
			}
		}
		ns := float64(time.Since(start).Nanoseconds()) / calls
		allocs := float64(mallocs()-before) / calls
		if round == 0 || ns < nsPerCall {
			nsPerCall = ns
		}
		if round == 0 || allocs < allocsPerCall {
			allocsPerCall = allocs
		}
	}
	return nsPerCall, allocsPerCall, nil
}

// intervalsArm runs the full pipeline once at the given worker count and
// returns the result plus its collector snapshot. disable switches the
// static cost-interval stage off (the baseline arm).
func (r *Runner) intervalsArm(ctx context.Context, workers int, disable bool, target *stats.TargetDistribution) (*pipeline.Result, obs.Snapshot, time.Duration, error) {
	// A fresh database per arm isolates evaluation counters and the plan
	// cache, so every arm does identical work.
	db := TPCH.Open(r.Seed, r.Scale.SF)
	collector := obs.NewCollector()
	start := time.Now()
	p, err := pipeline.New(db, llm.NewSim(llm.SimOptions{Seed: r.Seed}), r.Specs(), target.Clone(),
		pipeline.WithSeed(r.Seed),
		pipeline.WithCostKind(engine.PlanCost),
		pipeline.WithParallel(workers),
		pipeline.WithObs(collector),
		pipeline.WithAblations(pipeline.Ablations{DisableIntervals: disable}),
	)
	if err != nil {
		return nil, obs.Snapshot{}, 0, err
	}
	res, err := p.Run(ctx)
	if err != nil {
		return nil, obs.Snapshot{}, 0, err
	}
	return res, collector.Snapshot(), time.Since(start), nil
}

// profileProbes reads the total probes the profiler issued from the
// snapshot's per-template histogram.
func profileProbes(snap obs.Snapshot) int64 {
	for _, h := range snap.Histograms {
		if h.Name == obs.HProfileProbes {
			return int64(h.Sum)
		}
	}
	return 0
}

// inWantedBand reports whether cost c lands in a target band that actually
// requests queries — the same half-open [Lo, Hi) semantics (closed top on
// the last band) the interval stage's prune test uses.
func inWantedBand(c float64, target *stats.TargetDistribution) bool {
	i := target.Intervals.Index(c)
	return i >= 0 && target.Counts[i] > 0
}

// verifyNoFalsePrunes re-probes every pruned template densely: a fresh LHS
// sweep far larger than the profiling budget, plus the domain corners, all
// costed on the DBMS. A single observation inside a wanted band is a false
// prune — the static bounds claimed the band was unreachable, and a probe
// reached it.
func (r *Runner) verifyNoFalsePrunes(ctx context.Context, res *pipeline.Result, target *stats.TargetDistribution) (int, error) {
	if len(res.PrunedTemplates) == 0 {
		return 0, nil
	}
	db := TPCH.Open(r.Seed, r.Scale.SF)
	pruned := map[int]bool{}
	for _, id := range res.PrunedTemplates {
		pruned[id] = true
	}
	checked := 0
	for _, gr := range res.GenResults {
		if !gr.Valid || gr.Template == nil || !pruned[gr.Template.ID] {
			continue
		}
		t := gr.Template
		prep, err := db.Prepare(t.SQL())
		if err != nil {
			return checked, fmt.Errorf("benchmarks: pruned template %d does not prepare: %w", t.ID, err)
		}
		bindings, err := t.BindPlaceholders(db.Schema())
		if err != nil {
			return checked, err
		}
		if len(bindings) == 0 {
			cost, err := prep.Cost(ctx, nil, engine.PlanCost)
			if err != nil {
				return checked, err
			}
			if inWantedBand(cost, target) {
				return checked, fmt.Errorf("benchmarks: FALSE PRUNE: template %d (no placeholders) costs %.6g, inside a wanted band\n%s",
					t.ID, cost, t.SQL())
			}
			checked++
			continue
		}
		space, err := profiler.BuildSearchSpace(t, bindings)
		if err != nil {
			return checked, err
		}
		boSpace := space.BOSpace()
		rng := prand.New(r.Seed, prand.StageProfile, prand.HashString(t.SQL()))
		unit := stats.LatinHypercube(rng, intervalsFalsePruneProbes, len(space.Dims))
		// Domain corners: all-lo and all-hi, where interval bounds are
		// tightest and real extremes live.
		lo := make([]float64, len(space.Dims))
		hi := make([]float64, len(space.Dims))
		for i := range hi {
			hi[i] = 1
		}
		unit = append(unit, lo, hi)
		for _, u := range unit {
			vals := space.ValuesFor(boSpace.Denormalize(u))
			cost, err := prep.Cost(ctx, vals, engine.PlanCost)
			if err != nil {
				return checked, err
			}
			if inWantedBand(cost, target) {
				return checked, fmt.Errorf("benchmarks: FALSE PRUNE: template %d costs %.6g at %v, inside a wanted band\n%s",
					t.ID, cost, vals, t.SQL())
			}
		}
		checked++
	}
	return checked, nil
}

// RunIntervalsBench measures what the static cost-interval stage buys and
// proves it safe. The target requests only the bottom fifth of the usual
// cost range, so seed-corpus templates whose plan-cost floor sits above it
// are provably unreachable and should be pruned without a single probe.
//
// Three contracts are checked:
//
//   - Savings: at least 20% of the baseline run's profiling probes are
//     eliminated (pruned templates skip their whole sweep, provably flat
//     templates collapse to one midpoint probe).
//   - Soundness in the field: every pruned template is re-probed densely
//     (far beyond the profiling budget, plus domain corners); any probe
//     landing in a wanted band is a false prune and fails the run.
//   - Determinism: the intervals arm produces byte-identical workloads and
//     identical DBMS-evaluation counts at 1, 2, and 8 workers.
//
// When jsonPath is non-empty the result is also written there as JSON
// (BENCH_intervals.json).
func (r *Runner) RunIntervalsBench(ctx context.Context, w io.Writer, jsonPath string) (*IntervalsBenchResult, error) {
	target := stats.Uniform(0, r.Scale.RangeHi/5, 5, 600/r.Scale.QueryDivisor)
	res := &IntervalsBenchResult{
		CostKind:         engine.PlanCost.String(),
		TargetLo:         0,
		TargetHi:         r.Scale.RangeHi / 5,
		FalsePruneProbes: intervalsFalsePruneProbes,
	}
	fmt.Fprintf(w, "=== Static cost-interval pruning | TPC-H sf=%.1f, plan-cost target [0, %.0f) ===\n",
		r.Scale.SF, res.TargetHi)

	// Baseline arm: intervals stage disabled, every valid template profiled.
	base, baseSnap, baseElapsed, err := r.intervalsArm(ctx, 1, true, target)
	if err != nil {
		return nil, err
	}
	res.BaselineProbes = profileProbes(baseSnap)
	res.BaselineDistance = base.Distance
	res.BaselineHash = workloadHash(base.Workload)
	fmt.Fprintf(w, "baseline   workers=1  elapsed=%-10s probes=%-6d dbcalls=%-8d distance=%-8.1f workload=%s\n",
		baseElapsed.Round(time.Millisecond), res.BaselineProbes, base.DBCalls, base.Distance, res.BaselineHash)

	// Intervals arms at 1, 2, and 8 workers.
	var first *pipeline.Result
	for _, workers := range []int{1, 2, 8} {
		ires, snap, elapsed, err := r.intervalsArm(ctx, workers, false, target)
		if err != nil {
			return nil, err
		}
		pt := IntervalsPoint{
			Workers:  workers,
			MS:       elapsed.Milliseconds(),
			DBCalls:  ires.DBCalls,
			Distance: ires.Distance,
			Hash:     workloadHash(ires.Workload),
		}
		res.Points = append(res.Points, pt)
		if first == nil {
			first = ires
			valid := 0
			for _, gr := range ires.GenResults {
				if gr.Valid && gr.Template != nil {
					valid++
				}
			}
			res.Templates = valid
			res.Pruned = len(ires.PrunedTemplates)
			res.Flat = int(snap.Counter(obs.MIntervalsFlat))
			res.IntervalsProbes = profileProbes(snap)
			res.SavedCounter = snap.Counter(obs.MIntervalsProbesSaved)
		}
		fmt.Fprintf(w, "intervals  workers=%-2d elapsed=%-10s probes=%-6d dbcalls=%-8d distance=%-8.1f workload=%s\n",
			workers, elapsed.Round(time.Millisecond), profileProbes(snap), pt.DBCalls, pt.Distance, pt.Hash)
	}
	for _, pt := range res.Points[1:] {
		if pt.Hash != res.Points[0].Hash {
			return nil, fmt.Errorf("benchmarks: intervals determinism violated: workers=%d workload hash %s != sequential %s",
				pt.Workers, pt.Hash, res.Points[0].Hash)
		}
		if pt.DBCalls != res.Points[0].DBCalls {
			return nil, fmt.Errorf("benchmarks: intervals DBMS evaluation count drifted: workers=%d used %d calls, sequential used %d",
				pt.Workers, pt.DBCalls, res.Points[0].DBCalls)
		}
	}

	if res.BaselineProbes <= 0 {
		return nil, fmt.Errorf("benchmarks: baseline arm recorded no profiling probes")
	}
	// ProbesSaved is the measured elimination: what the baseline run spent on
	// profiling (initial sweeps plus refine-round re-profiles of templates
	// that would have been pruned) minus what the intervals arm spent. The
	// counter is the stage's own static accounting — initial-sweep savings
	// only — and must never overstate the measured number.
	res.ProbesSaved = res.BaselineProbes - res.IntervalsProbes
	res.SavedFraction = float64(res.ProbesSaved) / float64(res.BaselineProbes)
	fmt.Fprintf(w, "pruned=%d/%d templates, flat=%d, probes saved=%d/%d (%.0f%%, counter=%d)\n",
		res.Pruned, res.Templates, res.Flat, res.ProbesSaved, res.BaselineProbes, 100*res.SavedFraction, res.SavedCounter)
	if res.SavedCounter > res.ProbesSaved {
		return nil, fmt.Errorf("benchmarks: intervals_probes_saved counter (%d) overstates the measured saving (%d)",
			res.SavedCounter, res.ProbesSaved)
	}
	if res.SavedCounter <= 0 {
		return nil, fmt.Errorf("benchmarks: intervals_probes_saved counter never moved")
	}

	checked, err := r.verifyNoFalsePrunes(ctx, first, target)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "false prunes: 0 (%d pruned templates re-probed with %d dense probes each)\n",
		checked, intervalsFalsePruneProbes)
	fmt.Fprintf(w, "determinism: all %d worker levels produced workload %s with %d DBMS calls\n",
		len(res.Points), res.Points[0].Hash, res.Points[0].DBCalls)
	if res.BoundsNSPerCall, res.BoundsAllocsPerCall, err = r.boundsCallCost(first); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "EstimateBounds: %.0f ns/call %.1f allocs/call (%d valid templates at full slot domains)\n",
		res.BoundsNSPerCall, res.BoundsAllocsPerCall, res.Templates)

	if res.Pruned == 0 {
		return nil, fmt.Errorf("benchmarks: intervals stage pruned nothing on the seed corpus")
	}
	if res.SavedFraction < intervalsSavingsFloor {
		return nil, fmt.Errorf("benchmarks: intervals saved only %.0f%% of profiling probes, below the %.0f%% floor",
			100*res.SavedFraction, 100*intervalsSavingsFloor)
	}

	return res, writeBenchJSON(w, jsonPath, res)
}
