// Package sqlparser implements the SQL dialect of the embedded engine: a
// lexer, a recursive-descent parser, an AST with back-to-SQL rendering, and
// support for SQLBarber's {p_i} template placeholders (Definition 2.1).
//
// The dialect covers the SELECT surface SQLBarber generates: inner/left
// joins with ON conditions, WHERE with AND/OR/NOT, comparison, BETWEEN, IN
// (list and subquery), EXISTS, LIKE, IS NULL, arithmetic and CASE scalar
// expressions, aggregate functions, GROUP BY / HAVING, ORDER BY, LIMIT, and
// DISTINCT.
package sqlparser

import (
	"fmt"
	"strings"

	"sqlbarber/internal/sqltypes"
)

// Node is any AST node; every node renders back to SQL text.
type Node interface {
	// SQL renders the node as SQL text. Rendering a parsed statement and
	// re-parsing it yields a structurally identical AST.
	SQL() string
}

// Expr is a scalar or boolean expression node.
type Expr interface {
	Node
	exprNode()
}

// SelectStmt is a full SELECT statement.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     *TableRef
	Joins    []JoinClause
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    int // -1 when absent
}

// SelectItem is one projection: an expression with an optional alias, or a
// bare star.
type SelectItem struct {
	Star  bool
	Expr  Expr
	Alias string
}

// TableRef names a base table with an optional alias.
type TableRef struct {
	Table string
	Alias string
}

// Name returns the reference name used to qualify columns (alias if present).
func (t *TableRef) Name() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

// JoinType distinguishes INNER from LEFT OUTER joins.
type JoinType uint8

// Supported join types.
const (
	JoinInner JoinType = iota
	JoinLeft
)

// JoinClause is one `JOIN table ON cond` clause.
type JoinClause struct {
	Type  JoinType
	Table TableRef
	On    Expr
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// ColumnRef references a column, optionally qualified by table or alias.
type ColumnRef struct {
	Table string // optional qualifier
	Name  string
}

// Literal is a constant value.
type Literal struct {
	Value sqltypes.Value
}

// Placeholder is a template placeholder {name} to be replaced by a predicate
// value before execution (Definition 2.1).
type Placeholder struct {
	Name string
}

// BinaryOp enumerates binary operators.
type BinaryOp uint8

// Binary operators.
const (
	OpEq BinaryOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpAnd
	OpOr
)

var binaryOpNames = map[BinaryOp]string{
	OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpAnd: "AND", OpOr: "OR",
}

// String returns the SQL spelling of the operator.
func (op BinaryOp) String() string { return binaryOpNames[op] }

// IsComparison reports whether the operator is a comparison.
func (op BinaryOp) IsComparison() bool { return op <= OpGe }

// BinaryExpr is `L op R`.
type BinaryExpr struct {
	Op   BinaryOp
	L, R Expr
}

// UnaryExpr is `NOT x` or `-x`.
type UnaryExpr struct {
	Op string // "NOT" or "-"
	X  Expr
}

// FuncCall is a function or aggregate invocation.
type FuncCall struct {
	Name     string // upper-cased
	Star     bool   // COUNT(*)
	Distinct bool   // COUNT(DISTINCT x)
	Args     []Expr
}

// AggregateFuncs lists the recognized aggregate function names.
var AggregateFuncs = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
}

// IsAggregate reports whether the call is an aggregate function.
func (f *FuncCall) IsAggregate() bool { return AggregateFuncs[f.Name] }

// CaseWhen is one WHEN cond THEN result arm.
type CaseWhen struct {
	Cond   Expr
	Result Expr
}

// CaseExpr is a searched CASE expression.
type CaseExpr struct {
	Whens []CaseWhen
	Else  Expr
}

// InExpr is `x [NOT] IN (list)` or `x [NOT] IN (subquery)`.
type InExpr struct {
	Not  bool
	X    Expr
	List []Expr
	Sub  *SelectStmt
}

// ExistsExpr is `[NOT] EXISTS (subquery)`.
type ExistsExpr struct {
	Not bool
	Sub *SelectStmt
}

// BetweenExpr is `x [NOT] BETWEEN lo AND hi`.
type BetweenExpr struct {
	Not    bool
	X      Expr
	Lo, Hi Expr
}

// LikeExpr is `x [NOT] LIKE pattern`.
type LikeExpr struct {
	Not     bool
	X       Expr
	Pattern Expr
}

// IsNullExpr is `x IS [NOT] NULL`.
type IsNullExpr struct {
	Not bool
	X   Expr
}

// SubqueryExpr is a scalar subquery used as an expression.
type SubqueryExpr struct {
	Sub *SelectStmt
}

func (*ColumnRef) exprNode()    {}
func (*Literal) exprNode()      {}
func (*Placeholder) exprNode()  {}
func (*BinaryExpr) exprNode()   {}
func (*UnaryExpr) exprNode()    {}
func (*FuncCall) exprNode()     {}
func (*CaseExpr) exprNode()     {}
func (*InExpr) exprNode()       {}
func (*ExistsExpr) exprNode()   {}
func (*BetweenExpr) exprNode()  {}
func (*LikeExpr) exprNode()     {}
func (*IsNullExpr) exprNode()   {}
func (*SubqueryExpr) exprNode() {}

// ---- SQL rendering ----

// SQL renders the statement.
func (s *SelectStmt) SQL() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		if it.Star {
			b.WriteString("*")
			continue
		}
		b.WriteString(it.Expr.SQL())
		if it.Alias != "" {
			b.WriteString(" AS " + it.Alias)
		}
	}
	if s.From != nil {
		b.WriteString(" FROM " + s.From.SQL())
	}
	for _, j := range s.Joins {
		if j.Type == JoinLeft {
			b.WriteString(" LEFT JOIN ")
		} else {
			b.WriteString(" JOIN ")
		}
		b.WriteString(j.Table.SQL())
		b.WriteString(" ON " + j.On.SQL())
	}
	if s.Where != nil {
		b.WriteString(" WHERE " + s.Where.SQL())
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.SQL())
		}
	}
	if s.Having != nil {
		b.WriteString(" HAVING " + s.Having.SQL())
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.Expr.SQL())
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", s.Limit)
	}
	return b.String()
}

// SQL renders the table reference.
func (t *TableRef) SQL() string {
	if t.Alias != "" {
		return t.Table + " AS " + t.Alias
	}
	return t.Table
}

// SQL renders the column reference.
func (c *ColumnRef) SQL() string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}

// SQL renders the literal.
func (l *Literal) SQL() string { return l.Value.SQLLiteral() }

// SQL renders the placeholder in SQLBarber's {p_i} syntax.
func (p *Placeholder) SQL() string { return "{" + p.Name + "}" }

// SQL renders the binary expression with minimal parenthesization: operands
// of AND/OR and comparison operands that are themselves binary get parens.
func (e *BinaryExpr) SQL() string {
	l, r := e.L.SQL(), e.R.SQL()
	if needParens(e.Op, e.L) {
		l = "(" + l + ")"
	}
	if needParens(e.Op, e.R) {
		r = "(" + r + ")"
	}
	return l + " " + e.Op.String() + " " + r
}

func needParens(parent BinaryOp, child Expr) bool {
	b, ok := child.(*BinaryExpr)
	if !ok {
		return false
	}
	return prec(b.Op) < prec(parent)
}

func prec(op BinaryOp) int {
	switch op {
	case OpOr:
		return 1
	case OpAnd:
		return 2
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return 3
	case OpAdd, OpSub:
		return 4
	default:
		return 5
	}
}

// SQL renders the unary expression.
func (e *UnaryExpr) SQL() string {
	if e.Op == "NOT" {
		return "NOT (" + e.X.SQL() + ")"
	}
	return e.Op + e.X.SQL()
}

// SQL renders the function call.
func (f *FuncCall) SQL() string {
	if f.Star {
		return f.Name + "(*)"
	}
	args := make([]string, len(f.Args))
	for i, a := range f.Args {
		args[i] = a.SQL()
	}
	d := ""
	if f.Distinct {
		d = "DISTINCT "
	}
	return f.Name + "(" + d + strings.Join(args, ", ") + ")"
}

// SQL renders the CASE expression.
func (c *CaseExpr) SQL() string {
	var b strings.Builder
	b.WriteString("CASE")
	for _, w := range c.Whens {
		b.WriteString(" WHEN " + w.Cond.SQL() + " THEN " + w.Result.SQL())
	}
	if c.Else != nil {
		b.WriteString(" ELSE " + c.Else.SQL())
	}
	b.WriteString(" END")
	return b.String()
}

// SQL renders the IN expression.
func (e *InExpr) SQL() string {
	not := ""
	if e.Not {
		not = "NOT "
	}
	if e.Sub != nil {
		return e.X.SQL() + " " + not + "IN (" + e.Sub.SQL() + ")"
	}
	items := make([]string, len(e.List))
	for i, it := range e.List {
		items[i] = it.SQL()
	}
	return e.X.SQL() + " " + not + "IN (" + strings.Join(items, ", ") + ")"
}

// SQL renders the EXISTS expression.
func (e *ExistsExpr) SQL() string {
	not := ""
	if e.Not {
		not = "NOT "
	}
	return not + "EXISTS (" + e.Sub.SQL() + ")"
}

// SQL renders the BETWEEN expression.
func (e *BetweenExpr) SQL() string {
	not := ""
	if e.Not {
		not = "NOT "
	}
	return e.X.SQL() + " " + not + "BETWEEN " + e.Lo.SQL() + " AND " + e.Hi.SQL()
}

// SQL renders the LIKE expression.
func (e *LikeExpr) SQL() string {
	not := ""
	if e.Not {
		not = "NOT "
	}
	return e.X.SQL() + " " + not + "LIKE " + e.Pattern.SQL()
}

// SQL renders the IS NULL expression.
func (e *IsNullExpr) SQL() string {
	if e.Not {
		return e.X.SQL() + " IS NOT NULL"
	}
	return e.X.SQL() + " IS NULL"
}

// SQL renders the scalar subquery.
func (e *SubqueryExpr) SQL() string { return "(" + e.Sub.SQL() + ")" }
