package datagen

import (
	"math/rand"

	"sqlbarber/internal/catalog"
	"sqlbarber/internal/storage"
)

var (
	regions   = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	segments  = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"}
	statuses  = []string{"F", "O", "P"}
	priority  = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	shipModes = []string{"AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"}
	partTypes = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	brands    = vocabulary("Brand", 25)
)

// TPCH builds the TPC-H-shaped database at the given scale factor. At sf=1
// the fact table (lineitem) holds 60,000 rows — large enough that EXPLAIN
// cardinalities and plan costs sweep the paper's [0, 10k] target range.
func TPCH(seed int64, sf float64) *storage.Database {
	nSupp := scaled(100, sf)
	nCust := scaled(1500, sf)
	nPart := scaled(2000, sf)
	nPsup := scaled(8000, sf)
	nOrd := scaled(15000, sf)
	nLine := scaled(60000, sf)

	specs := []tableSpec{
		{
			name: "region", rows: 5, pk: "r_regionkey",
			cols: []columnGen{
				serial("r_regionkey"),
				strCol("r_name", func(_ *rand.Rand, i int) string { return regions[i%5] }),
				strCol("r_comment", func(rng *rand.Rand, _ int) string { return comment(rng) }),
			},
		},
		{
			name: "nation", rows: 25, pk: "n_nationkey",
			fks: []catalog.ForeignKey{{Column: "n_regionkey", RefTable: "region", RefColumn: "r_regionkey"}},
			cols: []columnGen{
				serial("n_nationkey"),
				strCol("n_name", func(_ *rand.Rand, i int) string { return numbered("NATION_", i, 2, "") }),
				intCol("n_regionkey", func(_ *rand.Rand, i int) int64 { return int64(i%5) + 1 }),
				strCol("n_comment", func(rng *rand.Rand, _ int) string { return comment(rng) }),
			},
		},
		{
			name: "supplier", rows: nSupp, pk: "s_suppkey",
			fks: []catalog.ForeignKey{{Column: "s_nationkey", RefTable: "nation", RefColumn: "n_nationkey"}},
			cols: []columnGen{
				serial("s_suppkey"),
				strCol("s_name", func(_ *rand.Rand, i int) string { return numbered("Supplier#", i+1, 6, "") }),
				fkUniform("s_nationkey", 25),
				uniformFloat("s_acctbal", -999, 9999),
				strCol("s_comment", func(rng *rand.Rand, _ int) string { return comment(rng) }),
			},
		},
		{
			name: "customer", rows: nCust, pk: "c_custkey",
			fks: []catalog.ForeignKey{{Column: "c_nationkey", RefTable: "nation", RefColumn: "n_nationkey"}},
			cols: []columnGen{
				serial("c_custkey"),
				strCol("c_name", func(_ *rand.Rand, i int) string { return numbered("Customer#", i+1, 8, "") }),
				fkUniform("c_nationkey", 25),
				uniformFloat("c_acctbal", -999, 9999),
				categorical("c_mktsegment", segments),
				strCol("c_comment", func(rng *rand.Rand, _ int) string { return comment(rng) }),
			},
		},
		{
			name: "part", rows: nPart, pk: "p_partkey",
			cols: []columnGen{
				serial("p_partkey"),
				strCol("p_name", func(rng *rand.Rand, i int) string {
					return numbered("part ", i+1, 6, " "+partTypes[rng.Intn(len(partTypes))])
				}),
				categorical("p_brand", brands),
				categorical("p_type", partTypes),
				uniformInt("p_size", 1, 50),
				uniformFloat("p_retailprice", 900, 2100),
			},
		},
		{
			name: "partsupp", rows: nPsup, pk: "",
			fks: []catalog.ForeignKey{
				{Column: "ps_partkey", RefTable: "part", RefColumn: "p_partkey"},
				{Column: "ps_suppkey", RefTable: "supplier", RefColumn: "s_suppkey"},
			},
			cols: []columnGen{
				fkUniform("ps_partkey", nPart),
				fkUniform("ps_suppkey", nSupp),
				uniformInt("ps_availqty", 1, 9999),
				uniformFloat("ps_supplycost", 1, 1000),
			},
		},
		{
			name: "orders", rows: nOrd, pk: "o_orderkey",
			fks: []catalog.ForeignKey{{Column: "o_custkey", RefTable: "customer", RefColumn: "c_custkey"}},
			cols: []columnGen{
				serial("o_orderkey"),
				fkZipf("o_custkey", nCust, 0.7),
				categorical("o_orderstatus", statuses),
				lognormFloat("o_totalprice", 10.5, 0.7, 500000),
				uniformInt("o_orderdate", 19920101, 19981231),
				categorical("o_orderpriority", priority),
				uniformInt("o_shippriority", 0, 1),
			},
		},
		{
			name: "lineitem", rows: nLine, pk: "",
			fks: []catalog.ForeignKey{
				{Column: "l_orderkey", RefTable: "orders", RefColumn: "o_orderkey"},
				{Column: "l_partkey", RefTable: "part", RefColumn: "p_partkey"},
				{Column: "l_suppkey", RefTable: "supplier", RefColumn: "s_suppkey"},
			},
			cols: []columnGen{
				fkZipf("l_orderkey", nOrd, 0.8),
				fkUniform("l_partkey", nPart),
				fkUniform("l_suppkey", nSupp),
				uniformInt("l_linenumber", 1, 7),
				uniformInt("l_quantity", 1, 50),
				lognormFloat("l_extendedprice", 9.8, 0.8, 120000),
				uniformFloat("l_discount", 0, 0.1),
				uniformFloat("l_tax", 0, 0.08),
				categorical("l_returnflag", []string{"A", "N", "R"}),
				categorical("l_shipmode", shipModes),
				uniformInt("l_shipdate", 19920101, 19981231),
			},
		},
	}
	return buildDatabase("tpch", seed, specs)
}

var commentWords = []string{
	"carefully", "final", "deposits", "sleep", "quickly", "ironic", "requests",
	"furiously", "express", "accounts", "bold", "pending", "theodolites",
	"regular", "packages", "silent", "foxes", "blithely", "even", "instructions",
}

// comment joins 3 to 7 random words, building the text in a stack buffer
// (7 of the longest words fit) so each comment is one allocation.
func comment(rng *rand.Rand) string {
	n := 3 + rng.Intn(5)
	var buf [96]byte
	out := buf[:0]
	for i := 0; i < n; i++ {
		if i > 0 {
			out = append(out, ' ')
		}
		out = append(out, commentWords[rng.Intn(len(commentWords))]...)
	}
	return string(out)
}
