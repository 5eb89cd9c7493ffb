// Package intervals is the cost tier of SQLBarber's static-analysis layer:
// an abstract interpretation of compiled plans over interval-valued
// parameter slots. Where package analyzer proves templates *invalid* before
// an LLM or DBMS call, this package proves cost ranges *unreachable* before
// a single profiling probe — templates whose sound cost bounds miss every
// requested target band are pruned (I001), templates whose bounds collapse
// to a point skip the LHS sweep (I002), and the surviving templates hand BO
// a search box narrowed to the slot regions that can still reach a wanted
// band.
//
// Everything here is a pure function of (template, catalog, target): no
// randomness, no probe results, no shared mutable state — which is what lets
// the pipeline make identical prune/flat/box decisions at any parallelism.
package intervals

import (
	"fmt"
	"math"

	"sqlbarber/internal/analyzer"
	"sqlbarber/internal/bo"
	"sqlbarber/internal/catalog"
	"sqlbarber/internal/engine"
	"sqlbarber/internal/plan"
	"sqlbarber/internal/profiler"
	"sqlbarber/internal/sqlparser"
	"sqlbarber/internal/sqltemplate"
	"sqlbarber/internal/stats"
)

// boxCells is the per-dimension resolution of the search-box projection:
// each numeric slot domain is split into this many equal cells, and cells
// whose bounds provably miss every wanted band are cut from BO's box.
const boxCells = 8

// Analysis is the static cost-interval verdict for one template.
type Analysis struct {
	// TemplateID echoes the analyzed template's ID.
	TemplateID int
	// Available reports whether sound bounds could be computed at all: the
	// cost kind is estimator-backed (Cardinality or PlanCost), the template
	// compiles, and every placeholder has a derivable domain. When false,
	// Reason says why and no pruning or narrowing may be based on this
	// analysis.
	Available bool
	// Reason explains an unavailable analysis.
	Reason string
	// Est holds both bounded quantities (rows and total cost).
	Est plan.BoundsEstimate
	// Bounds is the sound bound on the profiled metric under the analyzed
	// CostKind: Est.Rows for Cardinality, Est.Cost for PlanCost.
	Bounds plan.CostBounds
	// Pruned marks that Bounds provably misses every target band with a
	// non-zero requested count: no probe of this template can ever land in a
	// wanted band, so profiling it is pure waste.
	Pruned bool
	// Flat marks a template whose metric is provably (near-)constant over
	// the whole slot domain: one probe tells everything an LHS sweep would.
	Flat bool
	// Box, when non-nil, is a narrowed BO search space covering exactly the
	// slot cells whose bounds can still intersect a wanted band. nil means
	// no narrowing was possible (or the full space is already tight).
	Box bo.Space
	// Diagnostics carries the coded I-series findings for AttemptTrace.
	Diagnostics []analyzer.Diagnostic
}

// Analyze statically bounds one template's achievable metric range and
// derives the prune / flat / search-box verdicts against the target
// distribution. target may be nil, in which case bounds and flatness are
// still computed but nothing is pruned and no box is derived.
func Analyze(schema *catalog.Schema, t *sqltemplate.Template, kind engine.CostKind, target *stats.TargetDistribution) *Analysis {
	a := &Analysis{TemplateID: t.ID}
	if kind != engine.Cardinality && kind != engine.PlanCost {
		return a.unavailable(fmt.Sprintf("cost kind %s is measured, not estimated; no static bounds exist", kind))
	}
	cq, space, domains, err := Compile(schema, t)
	if err != nil {
		return a.unavailable(err.Error())
	}
	est, err := cq.EstimateBounds(domains)
	if err != nil {
		return a.unavailable("bounds evaluation failed: " + err.Error())
	}
	a.Available = true
	a.Est = est
	a.Bounds = metricOf(est, kind)

	if target != nil && !overlapsWanted(a.Bounds, target) {
		a.Pruned = true
		a.Diagnostics = append(a.Diagnostics, analyzer.Diagnostic{
			Code:     analyzer.CodeIntervalPruned,
			Severity: analyzer.Info,
			Msg: fmt.Sprintf("static %s bounds [%.6g, %.6g] miss every requested cost band; template pruned before profiling",
				kind, a.Bounds.Lo, a.Bounds.Hi),
		})
		return a
	}
	if space != nil && flatWidth(a.Bounds) {
		a.Flat = true
		a.Diagnostics = append(a.Diagnostics, analyzer.Diagnostic{
			Code:     analyzer.CodeIntervalFlat,
			Severity: analyzer.Info,
			Msg: fmt.Sprintf("static %s bounds [%.6g, %.6g] are flat across the slot domain; one probe replaces the LHS sweep",
				kind, a.Bounds.Lo, a.Bounds.Hi),
		})
		return a
	}
	if target != nil && space != nil {
		a.Box = projectBox(cq, space, domains, kind, target)
	}
	return a
}

func (a *Analysis) unavailable(reason string) *Analysis {
	a.Reason = reason
	a.Diagnostics = append(a.Diagnostics, analyzer.Diagnostic{
		Code:     analyzer.CodeIntervalUnavailable,
		Severity: analyzer.Info,
		Msg:      "interval analysis unavailable: " + reason,
	})
	return a
}

// metricOf selects the bounded quantity matching the profiled CostKind.
func metricOf(est plan.BoundsEstimate, kind engine.CostKind) plan.CostBounds {
	if kind == engine.Cardinality {
		return est.Rows
	}
	return est.Cost
}

// flatWidth reports whether a bound interval is collapsed up to the shared
// estimator epsilon (relative to magnitude, absolute near zero).
func flatWidth(b plan.CostBounds) bool {
	return stats.ApproxEqual(b.Lo, b.Hi)
}

// Compile compiles t against schema and derives the slot domains Analyze
// bounds it under: each placeholder's profiler search dimension, soundly
// widened by domainOf. space is nil when t has no placeholder.
func Compile(schema *catalog.Schema, t *sqltemplate.Template) (cq *plan.CompiledQuery, space *profiler.SearchSpace, domains map[string]plan.ParamDomain, err error) {
	// Compile a fresh parse: plan.Compile takes ownership of the statement
	// and rewrites its placeholders, so the template's own AST must not be
	// handed over.
	stmt, err := sqlparser.Parse(t.SQL())
	if err != nil {
		return nil, nil, nil, fmt.Errorf("template does not re-parse: %w", err)
	}
	if cq, err = plan.Compile(schema, stmt); err != nil {
		return nil, nil, nil, fmt.Errorf("template does not compile: %w", err)
	}
	bindings, err := t.BindPlaceholders(schema)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("placeholders do not bind: %w", err)
	}
	domains = map[string]plan.ParamDomain{}
	if len(bindings) > 0 {
		if space, err = profiler.BuildSearchSpace(t, bindings); err != nil {
			return nil, nil, nil, fmt.Errorf("no sampleable domain: %w", err)
		}
		for _, d := range space.Dims {
			domains[d.Binding.Name] = domainOf(d)
		}
	}
	return cq, space, domains, nil
}

// domainOf converts one profiler search dimension into the sound ParamDomain
// the interval evaluator needs. The profiler's probe machinery can step
// slightly outside the nominal [Lo, Hi]: bo.Space.Denormalize leaves
// continuous values unclamped (round-off can escape by ulps) and rounds
// integer dimensions before clamping, while Dimension.Value then truncates
// toward zero — both stay within one unit of the nominal range. The domain
// is therefore widened by one unit for integer dimensions and four ulps
// outward in every numeric case.
func domainOf(d profiler.Dimension) plan.ParamDomain {
	if d.Options != nil {
		return plan.ParamDomain{Options: d.Options}
	}
	return widenNumeric(d.Param.Lo, d.Param.Hi, d.Param.Integer)
}

func widenNumeric(lo, hi float64, integer bool) plan.ParamDomain {
	if integer {
		lo, hi = lo-1, hi+1
	}
	for i := 0; i < 4; i++ {
		lo = math.Nextafter(lo, math.Inf(-1))
		hi = math.Nextafter(hi, math.Inf(1))
	}
	return plan.ParamDomain{Numeric: true, Lo: lo, Hi: hi}
}

// overlapsWanted reports whether the bound interval intersects any target
// band with a non-zero requested count. Bands are half-open [Lo, Hi) except
// the last, which is closed on top — mirroring stats.Intervals.Index.
func overlapsWanted(b plan.CostBounds, target *stats.TargetDistribution) bool {
	for j, want := range target.Counts {
		if want <= 0 {
			continue
		}
		iv := target.Intervals[j]
		if b.Hi < iv.Lo {
			continue
		}
		if j == len(target.Intervals)-1 {
			if b.Lo <= iv.Hi {
				return true
			}
		} else if b.Lo < iv.Hi {
			return true
		}
	}
	return false
}

// projectBox narrows the BO search space dimension by dimension: each
// numeric dimension is split into boxCells equal cells, bounds are
// re-evaluated with that dimension restricted to the cell (all others at
// full domain), and cells whose bounds provably miss every wanted band are
// cut. The returned space is the hull of the surviving cells per dimension;
// nil when no dimension could be narrowed. Categorical dimensions pass
// through untouched.
//
// Cutting a cell is safe for workload quality: a probe inside a cut cell is
// statically guaranteed to land outside every wanted band, so BO loses only
// probes that could never contribute a selectable query.
func projectBox(cq *plan.CompiledQuery, space *profiler.SearchSpace, full map[string]plan.ParamDomain, kind engine.CostKind, target *stats.TargetDistribution) bo.Space {
	box := space.BOSpace()
	narrowed := false
	for i, d := range space.Dims {
		if d.Options != nil {
			continue
		}
		p := box[i]
		span := p.Hi - p.Lo
		if !(span > 0) {
			continue
		}
		keptLo, keptHi := math.Inf(1), math.Inf(-1)
		cut := false
		for c := 0; c < boxCells; c++ {
			cl, ch, doms := cellDomains(full, d.Binding.Name, p, c)
			est, err := cq.EstimateBounds(doms)
			if err != nil {
				return nil
			}
			if overlapsWanted(metricOf(est, kind), target) {
				keptLo = math.Min(keptLo, cl)
				keptHi = math.Max(keptHi, ch)
			} else {
				cut = true
			}
		}
		if !cut || !(keptHi > keptLo) {
			// Nothing cut, or everything cut (possible when the per-cell
			// bounds are tighter than the whole-domain bounds): keep the
			// full dimension.
			continue
		}
		if p.Integer {
			keptLo = math.Max(p.Lo, math.Floor(keptLo))
			keptHi = math.Min(p.Hi, math.Ceil(keptHi))
		}
		box[i].Lo, box[i].Hi = keptLo, keptHi
		narrowed = true
	}
	if !narrowed {
		return nil
	}
	return box
}

// cellDomains returns cell c of numeric dimension p, [cl, ch], and the slot
// domains projectBox bounds it under: the named slot restricted to the
// (widened) cell, every other slot at its full domain.
func cellDomains(full map[string]plan.ParamDomain, name string, p bo.Param, c int) (cl, ch float64, doms map[string]plan.ParamDomain) {
	span := p.Hi - p.Lo
	cl = p.Lo + span*float64(c)/boxCells
	ch = p.Lo + span*float64(c+1)/boxCells
	doms = make(map[string]plan.ParamDomain, len(full))
	for k, v := range full {
		doms[k] = v
	}
	doms[name] = widenNumeric(cl, ch, p.Integer)
	return cl, ch, doms
}
