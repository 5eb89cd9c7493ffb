// Package profiler implements §5.1, template profiling via strategic
// sampling: it derives each template's predicate-value search space from the
// schema statistics, draws space-filling Latin Hypercube samples, evaluates
// the instantiated queries on the DBMS, and records the resulting cost
// observations.
package profiler

import (
	"context"
	"fmt"
	"strconv"

	"sqlbarber/internal/bo"
	"sqlbarber/internal/engine"
	"sqlbarber/internal/obs"
	"sqlbarber/internal/prand"
	"sqlbarber/internal/sqltemplate"
	"sqlbarber/internal/sqltypes"
	"sqlbarber/internal/stats"
)

// Dimension maps one placeholder to a numeric search dimension. String
// columns become categorical dimensions over their observed values.
type Dimension struct {
	Binding sqltemplate.PlaceholderBinding
	Param   bo.Param
	Options []sqltypes.Value // non-nil for categorical dimensions
}

// Value converts a denormalized parameter value into the SQL value to
// substitute.
func (d Dimension) Value(raw float64) sqltypes.Value {
	if d.Options != nil {
		i := int(raw)
		if i < 0 {
			i = 0
		}
		if i >= len(d.Options) {
			i = len(d.Options) - 1
		}
		return d.Options[i]
	}
	if d.Param.Integer {
		return sqltypes.NewInt(int64(raw))
	}
	return sqltypes.NewFloat(raw)
}

// SearchSpace is a template's full predicate-value space.
type SearchSpace struct {
	Template *sqltemplate.Template
	Dims     []Dimension
}

// BOSpace converts to the optimizer's parameter space.
func (s *SearchSpace) BOSpace() bo.Space {
	out := make(bo.Space, len(s.Dims))
	for i, d := range s.Dims {
		out[i] = d.Param
	}
	return out
}

// ValuesFor maps denormalized parameter values to placeholder substitutions.
func (s *SearchSpace) ValuesFor(raw []float64) map[string]sqltypes.Value {
	return s.ValuesInto(make(map[string]sqltypes.Value, len(s.Dims)), raw)
}

// ValuesInto is ValuesFor filling the caller's map, which it clears first
// and returns. A search slot reuses one map for every probe of its run.
func (s *SearchSpace) ValuesInto(vals map[string]sqltypes.Value, raw []float64) map[string]sqltypes.Value {
	clear(vals)
	for i, d := range s.Dims {
		vals[d.Binding.Name] = d.Value(raw[i])
	}
	return vals
}

// Instantiate renders executable SQL for the given raw parameter vector.
func (s *SearchSpace) Instantiate(raw []float64) (string, error) {
	return s.Template.Instantiate(s.ValuesFor(raw))
}

// Size reports the approximate number of distinct configurations, feeding
// Algorithm 3's remaining-search-space accounting.
func (s *SearchSpace) Size() float64 { return s.BOSpace().Size() }

// BuildSearchSpace derives the search space from the template's placeholder
// bindings and column statistics.
func BuildSearchSpace(t *sqltemplate.Template, bindings []sqltemplate.PlaceholderBinding) (*SearchSpace, error) {
	ss := &SearchSpace{Template: t}
	for _, b := range bindings {
		st := b.Column.Stats
		var dim Dimension
		dim.Binding = b
		switch {
		case st.Min.IsNumeric() && st.Max.IsNumeric():
			lo, hi := st.Min.Float(), st.Max.Float()
			if hi <= lo {
				hi = lo + 1
			}
			// Widen slightly so boundary predicates can select all or none.
			span := hi - lo
			dim.Param = bo.Param{
				Name:    b.Name,
				Lo:      lo - 0.01*span,
				Hi:      hi + 0.01*span,
				Integer: st.Min.Kind() == sqltypes.KindInt,
			}
		default:
			// Categorical: enumerate observed common values.
			var opts []sqltypes.Value
			for _, mv := range st.MostCommon {
				opts = append(opts, mv.Value)
			}
			if len(opts) == 0 {
				if !st.Min.IsNull() {
					opts = append(opts, st.Min)
				}
				if !st.Max.IsNull() && st.Max.Compare(st.Min) != 0 {
					opts = append(opts, st.Max)
				}
			}
			if len(opts) == 0 {
				return nil, fmt.Errorf("profiler: placeholder {%s} on column %s has no sampleable domain", b.Name, b.Column.Name)
			}
			dim.Options = opts
			dim.Param = bo.Param{Name: b.Name, Lo: 0, Hi: float64(len(opts) - 1), Integer: true}
		}
		ss.Dims = append(ss.Dims, dim)
	}
	return ss, nil
}

// Observation is one profiled query.
type Observation struct {
	Raw  []float64 // denormalized predicate values
	SQL  string
	Cost float64
}

// Profile is the outcome of profiling one template.
type Profile struct {
	Template *sqltemplate.Template
	Space    *SearchSpace
	Obs      []Observation
	// Prep is the template prepared against the profiling database: parsed,
	// placeholder-bound and plan-compiled once, then evaluated per probe
	// without re-planning. Profile always sets it; downstream BO search costs
	// candidate values through it instead of re-parsing rendered SQL.
	Prep *engine.Prepared

	// memo maps an instantiated query to its cost. It holds the queries of
	// Obs[:memoed] plus those passed to Remember, and catches up with Obs
	// lazily in Known.
	memo   map[string]float64
	memoed int
}

// Known returns the cost already observed for the instantiated query sql,
// whether from Obs or from Remember, so a caller can skip the DBMS: every
// cost kind is a pure function of the query and the dataset. Obs
// grows in slot order, so what Known answers is the same at every worker
// count. A Profile is not safe for concurrent use: search touches each
// template from one wave slot at a time.
func (p *Profile) Known(sql string) (float64, bool) {
	if p.memoed < len(p.Obs) {
		if p.memo == nil {
			p.memo = make(map[string]float64, len(p.Obs))
		}
		for _, o := range p.Obs[p.memoed:] {
			p.memo[o.SQL] = o.Cost
		}
		p.memoed = len(p.Obs)
	}
	c, ok := p.memo[sql]
	return c, ok
}

// Remember records a probe's cost before the probe reaches Obs, so later
// probes of the same query in the same search slot are answered by Known.
func (p *Profile) Remember(sql string, cost float64) {
	if p.memo == nil {
		p.memo = map[string]float64{}
	}
	p.memo[sql] = cost
}

// Costs returns the observed cost vector (the C_i of §5.2).
func (p *Profile) Costs() []float64 {
	out := make([]float64, len(p.Obs))
	for i, o := range p.Obs {
		out[i] = o.Cost
	}
	return out
}

// Profiler profiles templates against one database and cost metric.
type Profiler struct {
	DB   *engine.DB
	Kind engine.CostKind
	// Seed is the base seed; each template draws its sample points from the
	// private stream Mix(Seed, StageProfile, HashString(template SQL)), so
	// profiling order and worker count never change what any template sees.
	Seed int64
	// IndependentSampling switches LHS off (ablation only).
	IndependentSampling bool
	// Parallel fans measured-kind LHS sweeps across that many execution
	// sessions (CostBatchParallel). Zero or one keeps the sweep on a single
	// session; estimate kinds are unaffected — their batched sweep is already
	// lock-free. The probe schedule, observations, and counter movement are
	// identical at every setting.
	Parallel int
}

// Profile instantiates the template at n space-filling sample points and
// records the observed costs. The template is prepared once (one parse, one
// placeholder binding, one plan compilation) and every probe is evaluated
// through the compiled statement. Templates whose queries fail to plan
// return an error and should be discarded by the caller.
func (p *Profiler) Profile(ctx context.Context, t *sqltemplate.Template, n int) (*Profile, error) {
	ctx, sp := obs.StartSpan(ctx, "profile", obs.A("template", strconv.Itoa(t.ID)))
	defer sp.End()
	bindings, err := t.BindPlaceholders(p.DB.Schema())
	if err != nil {
		return nil, err
	}
	prep, err := p.DB.Prepare(t.SQL())
	if err != nil {
		return nil, fmt.Errorf("profiler: template %d does not prepare: %w", t.ID, err)
	}
	if len(bindings) == 0 {
		// A template without placeholders yields exactly one query.
		sql := t.SQL()
		cost, err := prep.Cost(ctx, nil, p.Kind)
		if err != nil {
			return nil, err
		}
		sp.Observe(obs.HProfileProbes, 1)
		return &Profile{
			Template: t,
			Space:    &SearchSpace{Template: t},
			Obs:      []Observation{{SQL: sql, Cost: cost}},
			Prep:     prep,
		}, nil
	}
	space, err := BuildSearchSpace(t, bindings)
	if err != nil {
		return nil, err
	}
	boSpace := space.BOSpace()
	rng := prand.New(p.Seed, prand.StageProfile, prand.HashString(t.SQL()))
	var unit [][]float64
	if p.IndependentSampling {
		unit = stats.IndependentUniform(rng, n, len(space.Dims))
	} else {
		unit = stats.LatinHypercube(rng, n, len(space.Dims))
	}
	prof := &Profile{Template: t, Space: space, Prep: prep}
	// The LHS sweep instantiates all probe bindings up front and costs them
	// through one CostBatch call: a single batched sweep over the compiled
	// template, reusing one parameter buffer across probes.
	raws := make([][]float64, len(unit))
	sqls := make([]string, len(unit))
	valsList := make([]map[string]sqltypes.Value, len(unit))
	for i, u := range unit {
		raw := boSpace.Denormalize(u)
		vals := space.ValuesFor(raw)
		sql, err := t.Instantiate(vals)
		if err != nil {
			return nil, err
		}
		raws[i], sqls[i], valsList[i] = raw, sql, vals
	}
	// Each distinct query is costed once: integer and categorical
	// dimensions can send two sample points to the same query, and the
	// later point takes the earlier one's cost. pos maps a query to its
	// place in the probed sweep.
	probed := valsList
	pos := make(map[string]int, len(sqls))
	for _, sql := range sqls {
		if _, ok := pos[sql]; !ok {
			pos[sql] = len(pos)
		}
	}
	if len(pos) < len(sqls) {
		probed = make([]map[string]sqltypes.Value, 0, len(pos))
		for i, sql := range sqls {
			if pos[sql] == len(probed) {
				probed = append(probed, valsList[i])
			}
		}
		sp.Count(obs.MProfileDedupedProbes, int64(len(sqls)-len(probed)))
	}
	var costs []float64
	if p.Kind.Measured() {
		// Measured sweeps fan across sessions. Routing through the parallel
		// batch even at parallelism 1 keeps counter movement (attempt-all)
		// invariant across worker counts.
		costs, err = prep.CostBatchParallel(ctx, probed, p.Kind, p.Parallel)
	} else {
		costs, err = prep.CostBatch(ctx, probed, p.Kind)
	}
	if err != nil {
		return nil, fmt.Errorf("profiler: template %d probe failed: %w", t.ID, err)
	}
	prof.Obs = make([]Observation, len(sqls))
	for i, sql := range sqls {
		prof.Obs[i] = Observation{Raw: raws[i], SQL: sql, Cost: costs[pos[sql]]}
	}
	sp.Observe(obs.HProfileProbes, float64(len(prof.Obs)))
	sp.Annotate(obs.A("probes", strconv.Itoa(len(prof.Obs))))
	return prof, nil
}
