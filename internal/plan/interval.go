package plan

// The interval domain: EstimateBounds runs the one cost model of cost.go
// over interval-valued parameter slots instead of one value vector,
// yielding sound bounds on every probe's outcome.
//
// Soundness argument. IEEE-754 round-to-nearest is monotone: for one
// primitive float operation (+, -, *, /, math.Max, math.Min, math.Ceil),
// y1 <= y2 implies fl(y1) <= fl(y2). The interval domain evaluates the very
// operation tree the point domain evaluates — it is the same generic code —
// with each primitive taken at its interval endpoints, so it bounds the
// floating-point result anywhere inside with no ulp slack. Three kinds of
// leaf need more than endpoint evaluation:
//
//   - primitives without a monotonicity guarantee: Go's math.Log2 carries
//     none at ulp granularity, so ival.log2 widens its endpoints 4 ulps
//     outward;
//   - per-value estimator leaves: fracBelowX is float-monotone by
//     construction, but its range form still widens one ulp and clamps to
//     [0, 1] (the concrete result is provably inside); eqSel over a numeric
//     range hulls the no-MCV-hit value with every numeric MCV frequency the
//     range can reach; a categorical slot takes the hull of the point
//     estimate at each of its options;
//   - value-dependent branches: a condition the domain may decide either way
//     (outcome maybe) contributes the hull of every branch an environment
//     could reach — the sargable index-scan flip (seq-scan vs index-scan
//     cost, idxCost being monotone in selectivity), the sort-cost two-row
//     threshold, and every constant-vs-default selectivity branch.
//
// Interval arithmetic treats correlated subexpressions (the same slot
// appearing twice) as independent; that loses tightness, never soundness.

import (
	"math"

	"sqlbarber/internal/catalog"
	"sqlbarber/internal/sqlparser"
	"sqlbarber/internal/sqltypes"
)

// ParamDomain describes every value a parameter slot can take across probes.
// Numeric domains cover the closed range [Lo, Hi]; non-numeric (categorical)
// domains enumerate the possible values. The caller contracts that every
// value later passed to CostWith/EstimateWith for this parameter lies inside
// the domain — EstimateBounds is sound with respect to that contract.
type ParamDomain struct {
	Numeric bool
	Lo, Hi  float64
	Options []sqltypes.Value
}

// CostBounds is a closed interval [Lo, Hi] guaranteed to contain a quantity
// for every in-domain value environment.
type CostBounds struct {
	Lo, Hi float64
}

// Contains reports whether x lies inside the bounds.
func (b CostBounds) Contains(x float64) bool { return x >= b.Lo && x <= b.Hi }

// Width returns Hi - Lo.
func (b CostBounds) Width() float64 { return b.Hi - b.Lo }

// BoundsEstimate bounds both quantities EstimateWith reports: the root
// cardinality and the total plan cost.
type BoundsEstimate struct {
	Rows CostBounds
	Cost CostBounds
}

// EstimateBounds abstractly interprets the compiled plan over the given
// per-placeholder domains and returns bounds such that for every concrete
// parameter vector v drawn from the domains,
//
//	Rows.Lo <= EstimateWith(v).Rows <= Rows.Hi
//	Cost.Lo <= EstimateWith(v).Cost <= Cost.Hi
//
// It runs the roll-up EstimateWith runs, in the interval domain. Like
// EstimateWith it mutates nothing and is safe for unlimited concurrency
// alongside concrete probes on the same CompiledQuery.
func (c *CompiledQuery) EstimateBounds(domains map[string]ParamDomain) (BoundsEstimate, error) {
	var missing []string
	for _, name := range c.names {
		if _, ok := domains[name]; !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		return BoundsEstimate{}, &MissingParamsError{Names: missing}
	}
	// Probe values pass through NormalizeValue before reaching the
	// estimators, so categorical options are normalized here too; numeric
	// ranges are unaffected (normalization preserves numeric value exactly).
	env := ivalEnv{slots: c.slotIdx, consts: make([]constRange, len(c.names))}
	sets := make([]constSet, len(c.names))
	for i, name := range c.names {
		d := domains[name]
		if d.Numeric {
			sets[i] = constSet{lo: d.Lo, hi: d.Hi}
			env.consts[i] = constRange{kind: crRange, set: &sets[i]}
			continue
		}
		sets[i].opts = make([]sqltypes.Value, len(d.Options))
		for j, o := range d.Options {
			sets[i].opts[j] = NormalizeValue(o)
		}
		env.consts[i] = constRange{kind: crOptions, set: &sets[i]}
	}
	rows, cost := estimate[ival](env, c.post)
	return BoundsEstimate{
		Rows: CostBounds{Lo: rows.lo, Hi: rows.hi},
		Cost: CostBounds{Lo: cost.lo, Hi: cost.hi},
	}, nil
}

// ival is a closed float interval [lo, hi].
type ival struct{ lo, hi float64 }

func (ival) of(x float64) ival      { return ival{x, x} }
func (a ival) add(b ival) ival      { return ival{a.lo + b.lo, a.hi + b.hi} }
func (a ival) sub(b ival) ival      { return ival{a.lo - b.hi, a.hi - b.lo} }
func (a ival) scale(c float64) ival { return a.mul(ival{c, c}) }

// div divides by a positive constant (fl-division is monotone in the
// numerator for c > 0).
func (a ival) div(c float64) ival { return ival{a.lo / c, a.hi / c} }
func (a ival) max(b ival) ival    { return ival{math.Max(a.lo, b.lo), math.Max(a.hi, b.hi)} }
func (a ival) min(b ival) ival    { return ival{math.Min(a.lo, b.lo), math.Min(a.hi, b.hi)} }
func (a ival) clamp01() ival      { return ival{clamp01(a.lo), clamp01(a.hi)} }
func (a ival) hull(b ival) ival   { return ival{math.Min(a.lo, b.lo), math.Max(a.hi, b.hi)} }

// mul takes the hull of the four corner products: fl-multiplication is
// monotone in each argument (direction set by the other's sign), so its
// extremes over a box occur at corners.
func (a ival) mul(b ival) ival {
	p1, p2, p3, p4 := a.lo*b.lo, a.lo*b.hi, a.hi*b.lo, a.hi*b.hi
	return ival{
		math.Min(math.Min(p1, p2), math.Min(p3, p4)),
		math.Max(math.Max(p1, p2), math.Max(p3, p4)),
	}
}

// log2 bounds math.Log2 over a positive interval, widened 4 ulps outward
// because Go's Log2 carries no monotonicity guarantee.
func (a ival) log2() ival { return ival{math.Log2(a.lo), math.Log2(a.hi)}.ulpsOut(4) }

func (a ival) less(b ival) outcome {
	switch {
	case a.hi < b.lo:
		return yes
	case a.lo < b.hi:
		return maybe
	}
	return no
}

// ulpsOut widens an interval n ulps outward.
func (a ival) ulpsOut(n int) ival {
	for i := 0; i < n; i++ {
		a = ival{math.Nextafter(a.lo, math.Inf(-1)), math.Nextafter(a.hi, math.Inf(1))}
	}
	return a
}

// ivalEnv is the interval domain's environment: instead of one value per
// slot it carries what the slot reads across its whole domain.
type ivalEnv struct {
	slots  map[*sqlparser.Literal]int
	consts []constRange
}

// constOf is valueEnv.constValue over domains: a slot reads its domain, a
// plain literal its one value.
func (env ivalEnv) constOf(e sqlparser.Expr) constRange {
	if lit, ok := e.(*sqlparser.Literal); ok {
		if i, isSlot := env.slots[lit]; isSlot {
			return env.consts[i]
		}
		return constRange{kind: crPoint, val: lit.Value}
	}
	if u, ok := e.(*sqlparser.UnaryExpr); ok && u.Op == "-" {
		in := env.constOf(u.X)
		switch in.kind {
		case crPoint:
			if in.val.IsNumeric() {
				return constRange{kind: crPoint, val: in.val.Neg()}
			}
		case crRange:
			return constRange{kind: crRange, set: &constSet{lo: -in.set.hi, hi: -in.set.lo}, sometimes: in.sometimes}
		case crOptions:
			out := constRange{kind: crOptions, set: &constSet{}, sometimes: in.sometimes}
			for _, v := range in.set.opts {
				if v.IsNumeric() {
					out.set.opts = append(out.set.opts, v.Neg())
				} else {
					out.sometimes = true
				}
			}
			if len(out.set.opts) == 0 {
				return constRange{kind: crNone}
			}
			return out
		}
	}
	return constRange{kind: crNone}
}

// eqSel bounds equality selectivity over what k reads. For a numeric range
// the candidates are the no-MCV-hit value (always included: the hull may
// only grow) plus every numeric MCV frequency whose value the range can
// reach — non-numeric MCVs can never Equal a numeric probe value.
func (ivalEnv) eqSel(b *Binding, col *catalog.Column, k constRange) ival {
	switch k.kind {
	case crPoint:
		return ival{}.of(b.eqSel(col, k.val))
	case crOptions:
		out := ival{}.of(b.eqSel(col, k.set.opts[0]))
		for _, v := range k.set.opts[1:] {
			out = out.hull(ival{}.of(b.eqSel(col, v)))
		}
		return out
	case crRange:
		out := ival{}.of(eqSelRest(&col.Stats))
		for _, mv := range col.Stats.MostCommon {
			if mv.Value.IsNumeric() {
				f := mv.Value.Float()
				if f >= k.set.lo && f <= k.set.hi {
					out = out.hull(ival{}.of(mv.Freq))
				}
			}
		}
		return out
	}
	return ival{}.of(defaultEqSel)
}

// fracBelow bounds fracBelowX over what k reads. fracBelowX is
// float-monotone nondecreasing with results in [0, 1], so endpoint
// evaluation bounds a range exactly; one ulp of widening is kept anyway.
func (ivalEnv) fracBelow(st *catalog.ColumnStats, k constRange) ival {
	if k.kind == crPoint {
		return ival{}.of(fracBelowX(st, k.val.Float()))
	}
	fb := ival{fracBelowX(st, k.set.lo), fracBelowX(st, k.set.hi)}.ulpsOut(1)
	return ival{math.Max(0, fb.lo), math.Min(1, fb.hi)}
}

func (ivalEnv) node(*Query, opKind, int, ival, ival, string) {}
