package sqlparser

import (
	"strings"

	"sqlbarber/internal/sqltypes"
)

// Parse parses a single SELECT statement, tolerating a trailing semicolon.
func Parse(sql string) (*SelectStmt, error) {
	p := &parser{lex: lexer{src: sql}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if p.tok.kind == tokOp && p.tok.text == ";" {
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if p.tok.kind != tokEOF {
		return nil, p.lex.errf(p.tok.pos, "unexpected input after statement: %q", p.tok.text)
	}
	return stmt, nil
}

type parser struct {
	lex lexer
	tok token
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) isKeyword(kw string) bool {
	return p.tok.kind == tokKeyword && p.tok.text == kw
}

func (p *parser) isOp(op string) bool {
	return p.tok.kind == tokOp && p.tok.text == op
}

func (p *parser) expectKeyword(kw string) error {
	if !p.isKeyword(kw) {
		return p.lex.errf(p.tok.pos, "expected %s, found %q", kw, p.tok.text)
	}
	return p.advance()
}

func (p *parser) expectOp(op string) error {
	if !p.isOp(op) {
		return p.lex.errf(p.tok.pos, "expected %q, found %q", op, p.tok.text)
	}
	return p.advance()
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{Limit: -1}
	if p.isKeyword("DISTINCT") || p.isKeyword("UNIQUE") {
		stmt.Distinct = true
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		stmt.Items = append(stmt.Items, item)
		if !p.isOp(",") {
			break
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if p.isKeyword("FROM") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		tr, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		stmt.From = &tr
		for {
			var jt JoinType
			switch {
			case p.isKeyword("JOIN") || p.isKeyword("INNER"):
				jt = JoinInner
				if p.isKeyword("INNER") {
					if err := p.advance(); err != nil {
						return nil, err
					}
				}
			case p.isKeyword("LEFT"):
				jt = JoinLeft
				if err := p.advance(); err != nil {
					return nil, err
				}
				if p.isKeyword("OUTER") {
					if err := p.advance(); err != nil {
						return nil, err
					}
				}
			default:
				goto afterJoins
			}
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			tref, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("ON"); err != nil {
				return nil, err
			}
			cond, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.Joins = append(stmt.Joins, JoinClause{Type: jt, Table: tref, On: cond})
		}
	}
afterJoins:
	if p.isKeyword("WHERE") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	if p.isKeyword("GROUP") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			g, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, g)
			if !p.isOp(",") {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if p.isKeyword("HAVING") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Having = h
	}
	if p.isKeyword("ORDER") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.isKeyword("DESC") {
				item.Desc = true
				if err := p.advance(); err != nil {
					return nil, err
				}
			} else if p.isKeyword("ASC") {
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if !p.isOp(",") {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if p.isKeyword("LIMIT") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind != tokNumber || p.tok.val.Kind() != sqltypes.KindInt {
			return nil, p.lex.errf(p.tok.pos, "LIMIT requires an integer literal")
		}
		stmt.Limit = int(p.tok.val.Int())
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	return stmt, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.isOp("*") {
		if err := p.advance(); err != nil {
			return SelectItem{}, err
		}
		return SelectItem{Star: true}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.isKeyword("AS") {
		if err := p.advance(); err != nil {
			return SelectItem{}, err
		}
		if p.tok.kind != tokIdent {
			return SelectItem{}, p.lex.errf(p.tok.pos, "expected alias after AS")
		}
		item.Alias = p.tok.text
		if err := p.advance(); err != nil {
			return SelectItem{}, err
		}
	} else if p.tok.kind == tokIdent {
		item.Alias = p.tok.text
		if err := p.advance(); err != nil {
			return SelectItem{}, err
		}
	}
	return item, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	if p.tok.kind != tokIdent {
		return TableRef{}, p.lex.errf(p.tok.pos, "expected table name, found %q", p.tok.text)
	}
	tr := TableRef{Table: p.tok.text}
	if err := p.advance(); err != nil {
		return TableRef{}, err
	}
	if p.isKeyword("AS") {
		if err := p.advance(); err != nil {
			return TableRef{}, err
		}
	}
	if p.tok.kind == tokIdent {
		tr.Alias = p.tok.text
		if err := p.advance(); err != nil {
			return TableRef{}, err
		}
	}
	return tr, nil
}

// Expression grammar, loosest to tightest:
// expr      := andExpr (OR andExpr)*
// andExpr   := notExpr (AND notExpr)*
// notExpr   := NOT notExpr | predicate
// predicate := addExpr [cmp addExpr | [NOT] IN (...) | [NOT] BETWEEN a AND b
//              | [NOT] LIKE pat | IS [NOT] NULL]
// addExpr   := mulExpr ((+|-) mulExpr)*
// mulExpr   := unary ((*|/|%) unary)*
// unary     := - unary | primary
// primary   := literal | placeholder | column | func(...) | CASE | (expr) |
//              (SELECT ...) | EXISTS (SELECT ...)

func (p *parser) parseExpr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("OR") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: OpOr, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("AND") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: OpAnd, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.isKeyword("NOT") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", X: x}, nil
	}
	return p.parsePredicate()
}

var cmpOps = map[string]BinaryOp{
	"=": OpEq, "<>": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
}

func (p *parser) parsePredicate() (Expr, error) {
	left, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if p.tok.kind == tokOp {
		if op, ok := cmpOps[p.tok.text]; ok {
			if err := p.advance(); err != nil {
				return nil, err
			}
			right, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: op, L: left, R: right}, nil
		}
	}
	not := false
	if p.isKeyword("NOT") {
		// lookahead for IN / BETWEEN / LIKE
		save := *p
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.isKeyword("IN") || p.isKeyword("BETWEEN") || p.isKeyword("LIKE") {
			not = true
		} else {
			*p = save
			return left, nil
		}
	}
	switch {
	case p.isKeyword("IN"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		in := &InExpr{Not: not, X: left}
		if p.isKeyword("SELECT") {
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			in.Sub = sub
		} else {
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				in.List = append(in.List, e)
				if !p.isOp(",") {
					break
				}
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return in, nil
	case p.isKeyword("BETWEEN"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		lo, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{Not: not, X: left, Lo: lo, Hi: hi}, nil
	case p.isKeyword("LIKE"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		pat, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &LikeExpr{Not: not, X: left, Pattern: pat}, nil
	case p.isKeyword("IS"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		isNot := false
		if p.isKeyword("NOT") {
			isNot = true
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{Not: isNot, X: left}, nil
	}
	return left, nil
}

func (p *parser) parseAdd() (Expr, error) {
	left, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.isOp("+") || p.isOp("-") {
		op := OpAdd
		if p.tok.text == "-" {
			op = OpSub
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseMul() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.isOp("*") || p.isOp("/") || p.isOp("%") {
		var op BinaryOp
		switch p.tok.text {
		case "*":
			op = OpMul
		case "/":
			op = OpDiv
		default:
			op = OpMod
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.isOp("-") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := x.(*Literal); ok && lit.Value.IsNumeric() {
			v := lit.Value.Neg()
			if v.Kind() == sqltypes.KindFloat && v.Float() == 0 {
				// -0.0 would render as "-0", which re-parses as the integer
				// 0: fold to +0.0 so rendering stays a fixpoint.
				v = sqltypes.NewFloat(0)
			}
			return &Literal{Value: v}, nil
		}
		return &UnaryExpr{Op: "-", X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	switch p.tok.kind {
	case tokNumber, tokString:
		lit := &Literal{Value: p.tok.val}
		return lit, p.advance()
	case tokPlaceholder:
		ph := &Placeholder{Name: p.tok.text}
		return ph, p.advance()
	case tokKeyword:
		switch p.tok.text {
		case "NULL":
			return &Literal{Value: sqltypes.Null}, p.advance()
		case "TRUE":
			return &Literal{Value: sqltypes.NewBool(true)}, p.advance()
		case "FALSE":
			return &Literal{Value: sqltypes.NewBool(false)}, p.advance()
		case "CASE":
			return p.parseCase()
		case "EXISTS":
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &ExistsExpr{Sub: sub}, nil
		case "UNIQUE", "DISTINCT":
			// Tolerate UNIQUE(col) / DISTINCT(col) as in the paper's
			// Example 2.2; normalize to a DISTINCT aggregate-free marker by
			// treating it as a plain column wrapped in a COUNT-less call.
			kw := p.tok.text
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			arg, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			_ = kw
			return arg, nil
		}
		return nil, p.lex.errf(p.tok.pos, "unexpected keyword %q in expression", p.tok.text)
	case tokOp:
		if p.tok.text == "(" {
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.isKeyword("SELECT") {
				sub, err := p.parseSelect()
				if err != nil {
					return nil, err
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return &SubqueryExpr{Sub: sub}, nil
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		if p.tok.text == "*" {
			// bare star inside COUNT(*) is handled in call parsing; a star
			// here is invalid.
			return nil, p.lex.errf(p.tok.pos, "unexpected *")
		}
		return nil, p.lex.errf(p.tok.pos, "unexpected token %q", p.tok.text)
	case tokIdent:
		name := p.tok.text
		pos := p.tok.pos
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.isOp("(") {
			return p.parseCall(name, pos)
		}
		if p.isOp(".") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.tok.kind != tokIdent {
				return nil, p.lex.errf(p.tok.pos, "expected column after %q.", name)
			}
			col := &ColumnRef{Table: name, Name: p.tok.text}
			return col, p.advance()
		}
		return &ColumnRef{Name: name}, nil
	}
	return nil, p.lex.errf(p.tok.pos, "unexpected end of expression")
}

func (p *parser) parseCall(name string, pos int) (Expr, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	call := &FuncCall{Name: strings.ToUpper(name)}
	if p.isOp("*") {
		call.Star = true
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		if call.Name != "COUNT" {
			return nil, p.lex.errf(pos, "%s(*) is only valid for COUNT", call.Name)
		}
		return call, nil
	}
	if p.isKeyword("DISTINCT") {
		call.Distinct = true
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if !p.isOp(")") {
		for {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			call.Args = append(call.Args, a)
			if !p.isOp(",") {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return call, nil
}

func (p *parser) parseCase() (Expr, error) {
	if err := p.advance(); err != nil { // consume CASE
		return nil, err
	}
	c := &CaseExpr{}
	for p.isKeyword("WHEN") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		res, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, CaseWhen{Cond: cond, Result: res})
	}
	if len(c.Whens) == 0 {
		return nil, p.lex.errf(p.tok.pos, "CASE requires at least one WHEN arm")
	}
	if p.isKeyword("ELSE") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return c, nil
}
