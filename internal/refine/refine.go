// Package refine implements §5.2, Algorithm 2: cost-aware template
// refinement and pruning. It detects missing and difficult cost intervals,
// asks the LLM to refine the closest templates toward them (with few-shot
// rewrite history in phase 2), profiles every new template, and accepts it
// only if it fills an underrepresented interval or reduces the distribution
// distance (Equation 4).
package refine

import (
	"context"
	"fmt"
	"sort"
	"strconv"

	"sqlbarber/internal/llm"
	"sqlbarber/internal/obs"
	"sqlbarber/internal/profiler"
	"sqlbarber/internal/sqltemplate"
	"sqlbarber/internal/stats"
	"sqlbarber/internal/workload"
)

// Algorithm 2's parameters, fixed at the paper's values: phase 1 refines
// without history, phase 2 with it.
const (
	tau1, k1, m1 = 0.2, 3, 3
	tau2, k2, m2 = 0.1, 5, 5
	// profileSamples is the probe count per newly refined template.
	profileSamples = 8
	// maxNewTemplates bounds template proliferation.
	maxNewTemplates = 64
)

// Stats reports what a refinement run did.
type Stats struct {
	Iterations   int
	Generated    int // templates the LLM produced
	Accepted     int // templates that passed the pruning check
	ProfileFails int // refined templates whose probes failed
}

// Refiner runs Algorithm 2.
type Refiner struct {
	Oracle llm.Oracle
	Prof   *profiler.Profiler
	// Phase1Only cuts the history-aware phase 2 to one iteration that
	// refines one template per interval (k=m=1), leaving refinement almost
	// entirely to phase 1 (ablation).
	Phase1Only bool
}

type phase struct {
	tau     float64
	k, m    int
	useHist bool
}

// Run refines the template set toward the target distribution, returning
// the extended set (original templates plus accepted refinements) and stats.
func (r *Refiner) Run(ctx context.Context, templates []*workload.TemplateState, target *stats.TargetDistribution) ([]*workload.TemplateState, Stats, error) {
	ctx, rsp := obs.StartSpan(ctx, "refine")
	defer rsp.End()
	var st Stats
	hist := map[int][]llm.RefineAttempt{} // interval -> attempts
	nextID := 0
	for _, t := range templates {
		if t.Profile.Template.ID > nextID {
			nextID = t.Profile.Template.ID
		}
	}
	phases := []phase{
		{tau: tau1, k: k1, m: m1, useHist: false},
		{tau: tau2, k: k2, m: m2, useHist: true},
	}
	if r.Phase1Only {
		phases[1].k, phases[1].m = 1, 1
	}
	for _, ph := range phases {
		for iter := 0; iter < ph.k; iter++ {
			if err := ctx.Err(); err != nil {
				return templates, st, err
			}
			st.Iterations++
			rsp.Count(obs.MRefineIterations, 1)
			isp := rsp.StartSpan("refine:iteration", obs.A("iter", strconv.Itoa(iter)))
			coverage := workload.CountsOf(templates, target.Intervals)
			var low []int
			for j, want := range target.Counts {
				if want > 0 && float64(coverage[j]) < ph.tau*float64(want) {
					low = append(low, j)
				}
			}
			if len(low) == 0 {
				isp.End()
				return templates, st, nil
			}
			isp.Annotate(obs.A("low_intervals", strconv.Itoa(len(low))))
			added, err := r.refineForIntervals(ctx, &templates, target, low, ph, hist, &nextID, &st)
			isp.End()
			if err != nil {
				return templates, st, err
			}
			if !added && !ph.useHist {
				break // phase 1 made no progress; escalate to phase 2
			}
			if st.Accepted >= maxNewTemplates {
				return templates, st, nil
			}
		}
	}
	return templates, st, nil
}

// refineForIntervals is Algorithm 2's RefineForIntervals: refine the top-m
// closest templates toward each low-coverage interval.
func (r *Refiner) refineForIntervals(ctx context.Context, templates *[]*workload.TemplateState, target *stats.TargetDistribution, low []int, ph phase, hist map[int][]llm.RefineAttempt, nextID *int, st *Stats) (bool, error) {
	sink := obs.FromContext(ctx)
	added := false
	for _, j := range low {
		iv := target.Intervals[j]
		top := r.topByCloseness(*templates, iv, ph.m)
		for _, t := range top {
			var history []llm.RefineAttempt
			if ph.useHist {
				history = hist[j]
			}
			req := llm.RefineRequest{
				Schema:      r.Prof.DB.Schema(),
				TemplateSQL: t.Profile.Template.SQL(),
				Spec:        t.Spec,
				Costs:       t.Profile.Costs(),
				Target:      iv,
				History:     history,
			}
			newSQL, err := r.Oracle.RefineTemplate(ctx, req)
			if err != nil {
				return added, fmt.Errorf("refine: oracle failed: %w", err)
			}
			st.Generated++
			sink.Count(obs.MRefineGenerated, 1)
			curCounts := workload.CountsOf(*templates, target.Intervals)
			newState, attempt, err := r.profileCandidate(ctx, newSQL, t, j, target, curCounts)
			if err != nil {
				if ctx.Err() != nil {
					return added, ctx.Err()
				}
				st.ProfileFails++
				sink.Count(obs.MRefineProfileFails, 1)
				hist[j] = append(hist[j], llm.RefineAttempt{TemplateSQL: newSQL})
				continue
			}
			hist[j] = append(hist[j], attempt)
			if newState != nil {
				*nextID++
				newState.Profile.Template.ID = *nextID
				*templates = append(*templates, newState)
				st.Accepted++
				sink.Count(obs.MRefineAccepted, 1)
				added = true
				if st.Accepted >= maxNewTemplates {
					return added, nil
				}
			}
		}
	}
	return added, nil
}

// profileCandidate profiles a refined template and applies the Equation (4)
// pruning rule. It returns nil state (no error) when the candidate is
// pruned.
func (r *Refiner) profileCandidate(ctx context.Context, sql string, parent *workload.TemplateState, targetIdx int, target *stats.TargetDistribution, curCounts []int) (*workload.TemplateState, llm.RefineAttempt, error) {
	tmpl, err := sqltemplate.Parse(sql)
	if err != nil {
		return nil, llm.RefineAttempt{}, err
	}
	prof, err := r.Prof.Profile(ctx, tmpl, profileSamples)
	if err != nil {
		return nil, llm.RefineAttempt{}, err
	}
	attempt := llm.RefineAttempt{TemplateSQL: sql}
	if len(prof.Obs) > 0 {
		attempt.MinCost, attempt.MaxCost = prof.Obs[0].Cost, prof.Obs[0].Cost
		for _, o := range prof.Obs {
			if o.Cost < attempt.MinCost {
				attempt.MinCost = o.Cost
			}
			if o.Cost > attempt.MaxCost {
				attempt.MaxCost = o.Cost
			}
		}
	}
	iv := target.Intervals[targetIdx]
	for _, o := range prof.Obs {
		if iv.Contains(o.Cost) {
			attempt.Hit = true
			break
		}
	}
	if attempt.Hit {
		return &workload.TemplateState{Profile: prof, Spec: parent.Spec}, attempt, nil
	}
	// Equation (4) second clause: accept if the candidate's contribution
	// reduces the overall distribution distance D(d_c + v_new, d*) < D(d_c, d*).
	before := stats.Wasserstein(target.Intervals, target.Counts, curCounts)
	withNew := append([]int(nil), curCounts...)
	for _, o := range prof.Obs {
		if j := target.Intervals.Index(o.Cost); j >= 0 {
			withNew[j]++
		}
	}
	after := stats.Wasserstein(target.Intervals, target.Counts, withNew)
	if after < before {
		return &workload.TemplateState{Profile: prof, Spec: parent.Spec}, attempt, nil
	}
	return nil, attempt, nil
}

// topByCloseness ranks templates by Equation (2) and returns the top m.
func (r *Refiner) topByCloseness(templates []*workload.TemplateState, iv stats.Interval, m int) []*workload.TemplateState {
	type scored struct {
		t *workload.TemplateState
		s float64
	}
	all := make([]scored, 0, len(templates))
	var scorer workload.Scorer
	for _, t := range templates {
		score, _ := scorer.Closeness(t.Profile.Obs, iv)
		all = append(all, scored{t, score})
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].s > all[j].s })
	if m > len(all) {
		m = len(all)
	}
	out := make([]*workload.TemplateState, m)
	for i := 0; i < m; i++ {
		out[i] = all[i].t
	}
	return out
}

// Prune drops templates with no observed cost inside the target range —
// they cannot contribute to the distribution (Figure 4 step 3).
func Prune(templates []*workload.TemplateState, target *stats.TargetDistribution) []*workload.TemplateState {
	lo, hi := target.Intervals.Lo(), target.Intervals.Hi()
	var out []*workload.TemplateState
	for _, t := range templates {
		keep := false
		for _, o := range t.Profile.Obs {
			if o.Cost >= lo && o.Cost <= hi {
				keep = true
				break
			}
		}
		if keep {
			out = append(out, t)
		}
	}
	if len(out) == 0 {
		return templates // never prune everything
	}
	return out
}
