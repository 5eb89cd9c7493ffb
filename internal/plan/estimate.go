package plan

import (
	"strings"

	"sqlbarber/internal/catalog"
	"sqlbarber/internal/sqlparser"
	"sqlbarber/internal/sqltypes"
)

// Default selectivities, following PostgreSQL's conventions.
const (
	defaultEqSel     = 0.005
	defaultIneqSel   = 0.3333333333333333
	defaultLikeSel   = 0.05
	defaultInSubSel  = 0.3
	defaultExistsSel = 0.5
)

// tablesOf returns the set of level-0 table indexes an expression touches.
// Correlated references to outer scopes and subqueries do not count.
func (b *Binding) tablesOf(e sqlparser.Expr) map[int]bool {
	out := map[int]bool{}
	sqlparser.Walk(e, func(x sqlparser.Expr) bool {
		if cr, ok := x.(*sqlparser.ColumnRef); ok {
			if ref, ok := b.Cols[cr]; ok && ref.Level == 0 {
				out[ref.TableIdx] = true
			}
		}
		return true
	}, nil)
	return out
}

// column returns the catalog column a pure column reference resolves to at
// level 0, or nil for anything more complex.
func (b *Binding) column(e sqlparser.Expr) *catalog.Column {
	cr, ok := e.(*sqlparser.ColumnRef)
	if !ok {
		return nil
	}
	ref, ok := b.Cols[cr]
	if !ok || ref.Level != 0 {
		return nil
	}
	return &b.Scope.Tables[ref.TableIdx].Table.Columns[ref.ColIdx]
}

// constRange is what a constant expression reads across a domain's
// environments. A point environment yields crNone or crPoint; an interval
// domain may also yield a numeric range or a finite candidate set.
type constRange struct {
	kind uint8
	// sometimes marks that some environments additionally read no constant
	// (a negated categorical slot with mixed numeric/non-numeric options).
	sometimes bool
	val       sqltypes.Value // crPoint
	set       *constSet      // crRange, crOptions
}

// constSet is the value set of a slot-backed constRange.
type constSet struct {
	lo, hi float64          // crRange
	opts   []sqltypes.Value // crOptions
}

const (
	crNone    = iota // no constant in any environment
	crPoint          // one fixed value in every environment
	crRange          // a numeric slot: any value in [lo, hi]
	crOptions        // a finite candidate set
)

// has reports whether some environment reads a constant.
func (k constRange) has() bool { return k.kind != crNone }

// missing reports whether some environment reads no constant.
func (k constRange) missing() bool { return k.kind == crNone || k.sometimes }

// numeric reports whether every value k reads is numeric.
func (k constRange) numeric() bool {
	return k.kind == crRange || k.kind == crPoint && k.val.IsNumeric()
}

// option returns candidate i of a candidate set as a fixed value.
func (k constRange) option(i int) constRange { return constRange{kind: crPoint, val: k.set.opts[i]} }

// Selectivity estimates the fraction of rows satisfying a boolean
// expression, using column statistics where the shape allows.
func (b *Binding) Selectivity(e sqlparser.Expr) float64 {
	return float64(selectivity[point](valueEnv{}, b, e))
}

// selectivity is Selectivity over a domain. Where a constant operand may
// read nothing, the default-selectivity branch is reachable too and joins
// the result through orElse.
func selectivity[T num[T], D domain[T]](d D, b *Binding, e sqlparser.Expr) T {
	var z T
	switch t := e.(type) {
	case *sqlparser.BinaryExpr:
		switch t.Op {
		case sqlparser.OpAnd:
			return selectivity[T](d, b, t.L).mul(selectivity[T](d, b, t.R)).clamp01()
		case sqlparser.OpOr:
			sl, sr := selectivity[T](d, b, t.L), selectivity[T](d, b, t.R)
			return sl.add(sr).sub(sl.mul(sr)).clamp01()
		case sqlparser.OpEq, sqlparser.OpNe, sqlparser.OpLt, sqlparser.OpLe, sqlparser.OpGt, sqlparser.OpGe:
			return comparisonSel[T](d, b, t)
		}
	case *sqlparser.UnaryExpr:
		if t.Op == "NOT" {
			return z.of(1).sub(selectivity[T](d, b, t.X)).clamp01()
		}
	case *sqlparser.BetweenExpr:
		return betweenSel[T](d, b, t)
	case *sqlparser.InExpr:
		return inSel[T](d, b, t)
	case *sqlparser.ExistsExpr:
		if t.Not {
			return z.of(clamp01(1 - defaultExistsSel))
		}
		return z.of(defaultExistsSel)
	case *sqlparser.LikeExpr:
		return likeSel[T](b, t, d.constOf(t.Pattern))
	case *sqlparser.IsNullExpr:
		nf := 0.01
		if col := b.column(t.X); col != nil {
			nf = col.Stats.NullFrac
		}
		if t.Not {
			return z.of(clamp01(1 - nf))
		}
		return z.of(clamp01(nf))
	case *sqlparser.Literal:
		return boolSel[T](d.constOf(t))
	}
	return z.of(defaultIneqSel)
}

func comparisonSel[T num[T], D domain[T]](d D, b *Binding, e *sqlparser.BinaryExpr) T {
	var z T
	// Normalize to column-op-const orientation when possible.
	col, other, op := b.column(e.L), e.R, e.Op
	if col == nil {
		col, other, op = b.column(e.R), e.L, flipOp(op)
	}
	// Column op column, or an expression comparison, takes the default.
	def := defaultIneqSel
	if op == sqlparser.OpEq {
		def = defaultEqSel
	}
	if col == nil {
		return z.of(def)
	}
	k := d.constOf(other)
	var out T
	if k.has() {
		switch op {
		case sqlparser.OpEq:
			out = d.eqSel(b, col, k)
		case sqlparser.OpNe:
			out = z.of(1).sub(d.eqSel(b, col, k)).clamp01()
		default:
			out = rangeSel[T](d, b, col, k, op)
		}
	}
	if k.missing() {
		out = orElse(out, k.has(), z.of(def))
	}
	return out
}

func betweenSel[T num[T], D domain[T]](d D, b *Binding, t *sqlparser.BetweenExpr) T {
	var z T
	col := b.column(t.X)
	lo, hi := d.constOf(t.Lo), d.constOf(t.Hi)
	var out T
	reached := col != nil && lo.has() && hi.has()
	if reached {
		s := rangeSel[T](d, b, col, lo, sqlparser.OpGe).add(rangeSel[T](d, b, col, hi, sqlparser.OpLe)).sub(z.of(1))
		if t.Not {
			s = z.of(1).sub(s)
		}
		out = s.clamp01()
	}
	if col == nil || lo.missing() || hi.missing() {
		def := z.of(defaultIneqSel * defaultIneqSel)
		if t.Not {
			def = z.of(clamp01(1 - defaultIneqSel*defaultIneqSel))
		}
		out = orElse(out, reached, def)
	}
	return out
}

func inSel[T num[T], D domain[T]](d D, b *Binding, t *sqlparser.InExpr) T {
	var z T
	if t.Sub != nil {
		if t.Not {
			return z.of(clamp01(1 - defaultInSubSel))
		}
		return z.of(defaultInSubSel)
	}
	col := b.column(t.X)
	s := z.of(0)
	for _, item := range t.List {
		k := d.constOf(item)
		var term T
		reached := col != nil && k.has()
		if reached {
			term = d.eqSel(b, col, k)
		}
		if col == nil || k.missing() {
			term = orElse(term, reached, z.of(defaultEqSel))
		}
		s = s.add(term)
	}
	s = s.clamp01()
	if t.Not {
		return z.of(1).sub(s).clamp01()
	}
	return s
}

// likeSel is a LIKE predicate's selectivity when its pattern reads k; a
// candidate set takes the hull over its values.
func likeSel[T num[T]](b *Binding, t *sqlparser.LikeExpr, k constRange) T {
	var z, out T
	switch k.kind {
	case crPoint:
		out = z.of(b.likeAt(t, k.val))
	case crOptions:
		out = likeSel[T](b, t, k.option(0))
		for i := 1; i < len(k.set.opts); i++ {
			out = out.hull(likeSel[T](b, t, k.option(i)))
		}
	default:
		// No constant, or a numeric range: numbers never take the string
		// pattern rules.
		return z.of(b.likeAt(t, sqltypes.Null))
	}
	if k.sometimes {
		out = out.hull(z.of(b.likeAt(t, sqltypes.Null)))
	}
	return out
}

// likeAt is a LIKE predicate's selectivity when its pattern reads v.
func (b *Binding) likeAt(t *sqlparser.LikeExpr, v sqltypes.Value) float64 {
	s := defaultLikeSel
	if v.Kind() == sqltypes.KindString {
		pat := v.Str()
		if strings.HasPrefix(pat, "%") {
			s = 0.1
		}
		if !strings.ContainsAny(pat, "%_") {
			// Pattern with no wildcards behaves like equality.
			s = defaultEqSel
			if col := b.column(t.X); col != nil {
				s = b.eqSel(col, v)
			}
		}
	}
	if t.Not {
		return clamp01(1 - s)
	}
	return s
}

// boolSel is a bare literal's selectivity: 1 or 0 for a boolean, the
// default otherwise; a candidate set takes the hull over its values.
func boolSel[T num[T]](k constRange) T {
	var z T
	switch k.kind {
	case crPoint:
		if k.val.Kind() == sqltypes.KindBool {
			if k.val.Bool() {
				return z.of(1)
			}
			return z.of(0)
		}
	case crOptions:
		if len(k.set.opts) > 0 {
			out := boolSel[T](k.option(0))
			for i := 1; i < len(k.set.opts); i++ {
				out = out.hull(boolSel[T](k.option(i)))
			}
			return out
		}
	}
	return z.of(defaultIneqSel)
}

// eqSel estimates equality selectivity from MCVs and ndistinct.
func (b *Binding) eqSel(col *catalog.Column, v sqltypes.Value) float64 {
	for _, mv := range col.Stats.MostCommon {
		if mv.Value.Equal(v) {
			return mv.Freq
		}
	}
	return eqSelRest(&col.Stats)
}

// eqSelRest is eqSel for a value matching no MCV: the non-MCV, non-null
// fraction spread evenly over the remaining distinct values.
func eqSelRest(st *catalog.ColumnStats) float64 {
	mcvTotal := 0.0
	for _, mv := range st.MostCommon {
		mcvTotal += mv.Freq
	}
	rest := float64(st.NDistinct - len(st.MostCommon))
	if rest <= 0 {
		return defaultEqSel
	}
	return clamp01((1 - mcvTotal - st.NullFrac) / rest)
}

// rangeSel estimates `col op k` for op in <, <=, >, >= from the column's
// histogram (or its min/max) and MCVs; a candidate set takes the hull over
// its values.
func rangeSel[T num[T], D domain[T]](d D, b *Binding, col *catalog.Column, k constRange, op sqlparser.BinaryOp) T {
	var z T
	if k.kind == crOptions {
		out := rangeSel[T](d, b, col, k.option(0), op)
		for i := 1; i < len(k.set.opts); i++ {
			out = out.hull(rangeSel[T](d, b, col, k.option(i), op))
		}
		return out
	}
	st := &col.Stats
	if !k.numeric() || st.Min.IsNull() || !st.Min.IsNumeric() {
		return z.of(defaultIneqSel)
	}
	fracBelow := d.fracBelow(st, k)
	notNull := 1 - st.NullFrac
	switch op {
	case sqlparser.OpLt:
		return fracBelow.scale(notNull).clamp01()
	case sqlparser.OpLe:
		return fracBelow.add(d.eqSel(b, col, k)).scale(notNull).clamp01()
	case sqlparser.OpGt:
		return z.of(1).sub(fracBelow).sub(d.eqSel(b, col, k)).scale(notNull).clamp01()
	case sqlparser.OpGe:
		return z.of(1).sub(fracBelow).scale(notNull).clamp01()
	}
	return z.of(defaultIneqSel)
}

func flipOp(op sqlparser.BinaryOp) sqlparser.BinaryOp {
	switch op {
	case sqlparser.OpLt:
		return sqlparser.OpGt
	case sqlparser.OpLe:
		return sqlparser.OpGe
	case sqlparser.OpGt:
		return sqlparser.OpLt
	case sqlparser.OpGe:
		return sqlparser.OpLe
	}
	return op
}

// fracBelowX estimates P(col < x) from the column's histogram when present,
// falling back to linear interpolation between min and max. It is monotone
// nondecreasing in x and its results lie in [0, 1] — the interval domain
// (interval.go) relies on both properties to bound it by evaluating at the
// endpoints of an x-range.
func fracBelowX(st *catalog.ColumnStats, x float64) float64 {
	if len(st.Histogram) >= 2 {
		return histogramFraction(st.Histogram, x)
	}
	lo, hi := st.Min.Float(), st.Max.Float()
	switch {
	case x <= lo:
		return 0
	case x >= hi:
		return 1
	}
	return (x - lo) / (hi - lo)
}

// histogramFraction returns the fraction of values strictly below x given
// equi-depth bucket boundaries.
func histogramFraction(bounds []float64, x float64) float64 {
	n := len(bounds) - 1
	if x <= bounds[0] {
		return 0
	}
	if x >= bounds[n] {
		return 1
	}
	for i := 0; i < n; i++ {
		if x < bounds[i+1] || i == n-1 && x <= bounds[i+1] {
			lo, hi := bounds[i], bounds[i+1]
			within := 0.0
			if hi > lo {
				within = (x - lo) / (hi - lo)
			}
			return (float64(i) + within) / float64(n)
		}
	}
	return 1
}

func clamp01(x float64) float64 {
	switch {
	case x < 0:
		return 0
	case x > 1:
		return 1
	}
	return x
}
