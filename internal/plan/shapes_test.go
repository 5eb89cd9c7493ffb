package plan

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"sqlbarber/internal/sqlparser"
	"sqlbarber/internal/sqltypes"
)

// shapesHashPinned pins the exact bits of the estimates below. It was
// computed before the estimators were rewritten as one generic definition
// over a point/interval domain.
const shapesHashPinned = "0bf7edfcb20ad7be"

// TestEstimateShapesBitsPinned covers the estimator branches the generated
// corpora rarely reach — LIKE over categorical slots, a negated slot with
// mixed numeric and string options, IN lists of slots, NOT BETWEEN, a bare
// boolean slot, <> over strings, HAVING/DISTINCT/ORDER BY/LIMIT, correlated
// EXISTS, LEFT and nested-loop joins — by hashing the float64 bits of
// EstimateBounds and of CostWith at in-domain values, and checking that each
// CostWith lies inside the bounds; NaN probes pin CostWith alone.
func TestEstimateShapesBitsPinned(t *testing.T) {
	num := func(lo, hi float64) ParamDomain { return ParamDomain{Numeric: true, Lo: lo, Hi: hi} }
	opts := func(vs ...sqltypes.Value) ParamDomain { return ParamDomain{Options: vs} }
	i, f, s := sqltypes.NewInt, sqltypes.NewFloat, sqltypes.NewString
	cases := []struct {
		sql    string
		doms   map[string]ParamDomain
		probes []map[string]sqltypes.Value
	}{
		{"SELECT c_name FROM customer WHERE c_name LIKE {p}",
			map[string]ParamDomain{"p": opts(s("Customer#00000001"), s("%12"), s("C_st%"), i(7))},
			[]map[string]sqltypes.Value{{"p": s("Customer#00000001")}, {"p": s("%12")}, {"p": i(7)}}},
		{"SELECT c_name FROM customer WHERE c_name NOT LIKE {p}",
			map[string]ParamDomain{"p": opts(s("Customer#00000002"), s("x"))},
			[]map[string]sqltypes.Value{{"p": s("x")}}},
		{"SELECT * FROM orders WHERE o_totalprice > -{p} AND o_custkey <= -{q}",
			map[string]ParamDomain{"p": num(-5000, 100), "q": opts(i(-3), s("a"), f(-2.5))},
			[]map[string]sqltypes.Value{{"p": i(-5000), "q": i(-3)}, {"p": f(12.5), "q": f(-2.5)}}},
		{"SELECT * FROM orders WHERE o_orderkey IN ({p}, {q}, 7) AND o_custkey NOT IN ({p}, 3)",
			map[string]ParamDomain{"p": num(1, 500), "q": opts(i(2), s("z"))},
			[]map[string]sqltypes.Value{{"p": i(1), "q": i(2)}, {"p": i(250), "q": s("z")}}},
		{"SELECT * FROM lineitem WHERE l_quantity NOT BETWEEN {p} AND {q} AND l_orderkey BETWEEN {q} AND 40",
			map[string]ParamDomain{"p": num(1, 20), "q": num(10, 30)},
			[]map[string]sqltypes.Value{{"p": i(1), "q": i(30)}, {"p": f(7.5), "q": i(10)}}},
		{"SELECT * FROM orders WHERE {p} AND o_orderkey < 100",
			map[string]ParamDomain{"p": opts(sqltypes.NewBool(true), sqltypes.NewBool(false), i(1))},
			[]map[string]sqltypes.Value{{"p": sqltypes.NewBool(true)}, {"p": sqltypes.NewBool(false)}}},
		{"SELECT c_mktsegment, COUNT(*) FROM customer WHERE c_mktsegment <> {p} AND c_acctbal >= {q} " +
			"GROUP BY c_mktsegment HAVING COUNT(*) > 1 ORDER BY c_mktsegment LIMIT 3",
			map[string]ParamDomain{"p": opts(s("BUILDING"), s("MACHINERY")), "q": num(-1000, 9000)},
			[]map[string]sqltypes.Value{{"p": s("BUILDING"), "q": i(-1000)}, {"p": s("MACHINERY"), "q": f(8999.5)}}},
		{"SELECT DISTINCT o_orderpriority FROM orders WHERE o_orderdate < {p} OR NOT (o_totalprice >= {q}) ORDER BY o_orderpriority",
			map[string]ParamDomain{"p": num(19920101, 19981231), "q": num(0, 500000)},
			[]map[string]sqltypes.Value{{"p": i(19920101), "q": i(0)}, {"p": i(19950615), "q": i(250000)}}},
		{"SELECT c_name FROM customer WHERE c_acctbal > {p} AND EXISTS " +
			"(SELECT 1 FROM orders WHERE o_custkey = c_custkey AND o_totalprice > {q})",
			map[string]ParamDomain{"p": num(-1000, 9000), "q": num(0, 500000)},
			[]map[string]sqltypes.Value{{"p": i(0), "q": i(1000)}, {"p": i(9000), "q": i(500000)}}},
		{"SELECT * FROM customer AS c LEFT JOIN orders AS o ON c.c_custkey = o.o_custkey AND o.o_totalprice > {p} " +
			"WHERE c.c_custkey < {q}",
			map[string]ParamDomain{"p": num(0, 500000), "q": num(1, 100)},
			[]map[string]sqltypes.Value{{"p": i(0), "q": i(1)}, {"p": i(400000), "q": i(100)}}},
		{"SELECT * FROM customer AS c JOIN nation AS n ON c.c_nationkey < n.n_nationkey WHERE n.n_name = {p} AND c.c_custkey <= {q}",
			map[string]ParamDomain{"p": opts(s("NATION_03"), s("NATION_07")), "q": num(1, 50)},
			[]map[string]sqltypes.Value{{"p": s("NATION_03"), "q": i(1)}, {"p": s("NATION_07"), "q": i(50)}}},
	}
	h := sha256.New()
	put := func(fs ...float64) {
		for _, x := range fs {
			binary.Write(h, binary.LittleEndian, math.Float64bits(x))
		}
	}
	for ci, c := range cases {
		cq := compileSQL(t, c.sql)
		b, err := cq.EstimateBounds(c.doms)
		if err != nil {
			t.Fatalf("case %d: bounds: %v", ci, err)
		}
		put(b.Rows.Lo, b.Rows.Hi, b.Cost.Lo, b.Cost.Hi)
		for pi, vals := range c.probes {
			est, err := cq.CostWith(vals)
			if err != nil {
				t.Fatalf("case %d probe %d: CostWith: %v", ci, pi, err)
			}
			put(est.Rows, est.Cost)
			if !b.Rows.Contains(est.Rows) || !b.Cost.Contains(est.Cost) {
				t.Errorf("case %d probe %d: estimate %+v outside bounds %+v\n%s", ci, pi, est, b, c.sql)
			}
		}
	}
	// A NaN probe lies in no domain, so only its bits are pinned. Without
	// o_orderkey's histogram its NaN filter has a NaN selectivity: the index
	// scan on o_custkey must still be chosen, and the group count must carry
	// the NaN input rows, as the comparisons the formulas are written with do.
	sch := tpchSchema()
	sch.Table("orders").Column("o_orderkey").Stats.Histogram = nil
	nan := map[string]sqltypes.Value{"p": f(math.NaN()), "q": i(3)}
	for _, sql := range []string{
		"SELECT * FROM orders WHERE o_orderkey > {p} AND o_custkey < {q}",
		"SELECT o_custkey, COUNT(*) FROM orders WHERE o_orderkey > {p} AND o_custkey < {q} GROUP BY o_custkey",
		"SELECT * FROM orders AS o LEFT JOIN customer AS c ON o.o_custkey = c.c_custkey " +
			"WHERE o.o_orderkey > {p} AND o.o_custkey < {q}",
	} {
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		cq, err := Compile(sch, stmt)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		est, err := cq.CostWith(nan)
		if err != nil {
			t.Fatalf("NaN probe: CostWith: %v\n%s", err, sql)
		}
		put(est.Rows, est.Cost)
	}
	if got := hex.EncodeToString(h.Sum(nil))[:16]; got != shapesHashPinned {
		t.Errorf("shapes hash %s, want %s: some estimate or bound changed bits", got, shapesHashPinned)
	}
}
