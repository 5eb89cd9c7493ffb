package search

import (
	"context"
	"math/rand"
	"testing"

	"sqlbarber/internal/engine"
	"sqlbarber/internal/obs"
	"sqlbarber/internal/profiler"
	"sqlbarber/internal/sqltemplate"
	"sqlbarber/internal/stats"
	"sqlbarber/internal/workload"
)

// twoQueryState returns an unprofiled template whose search space holds
// exactly two queries: one categorical placeholder narrowed to two options.
func twoQueryState(t testing.TB, db *engine.DB) *workload.TemplateState {
	t.Helper()
	tm := sqltemplate.MustParse("SELECT o_orderkey FROM orders WHERE o_orderstatus = {p_1}")
	tm.ID = 1
	b, err := tm.BindPlaceholders(db.Schema())
	if err != nil {
		t.Fatal(err)
	}
	space, err := profiler.BuildSearchSpace(tm, b)
	if err != nil {
		t.Fatal(err)
	}
	d := &space.Dims[0]
	if len(d.Options) < 2 {
		t.Fatalf("o_orderstatus has %d options, want at least 2", len(d.Options))
	}
	d.Options, d.Param.Hi = d.Options[:2], 1
	prep, err := db.Prepare(tm.SQL())
	if err != nil {
		t.Fatal(err)
	}
	return &workload.TemplateState{Profile: &profiler.Profile{Template: tm, Space: space, Prep: prep}}
}

// dbCalls is the engine's evaluation count, as Result.DBCalls reads it.
func dbCalls(db *engine.DB) int64 { return db.ExplainCalls() + db.ExecCalls() }

// warmWith appends n profiled observations of the query at raw to st's
// history, costed by ref, and returns that query.
func warmWith(t testing.TB, ref *engine.DB, st *workload.TemplateState, raw float64, n int) string {
	t.Helper()
	sql, err := st.Profile.Space.Instantiate([]float64{raw})
	if err != nil {
		t.Fatal(err)
	}
	cost, err := ref.Cost(context.Background(), sql, engine.Cardinality)
	if err != nil {
		t.Fatal(err)
	}
	for range n {
		st.Profile.Obs = append(st.Profile.Obs, profiler.Observation{Raw: []float64{raw}, SQL: sql, Cost: cost})
	}
	return sql
}

// TestMemoSpendsOneCallPerQuery runs a 20-probe slot over a two-query space.
// The slot still stages all 20 probes, each with the cost a fresh DBMS call
// returns for its query, so BO sees the same objective values as without the
// memo and the staged output is unchanged; only the engine calls fall, to
// one per distinct query the template had not costed before the slot.
//
// "profiled" is the pipeline's case: the history holds four observations of
// one query (profiling takes at least four), so only the other query reaches
// the engine, once. A cold slot, BO or Naive, sends each of the two queries
// once, and a warm Naive slot stages the cold Naive slot's wave in the same
// order but sends only the unseen query.
func TestMemoSpendsOneCallPerQuery(t *testing.T) {
	ref := engine.OpenTPCH(1, 0.05)
	var naiveOrder []string // the cold Naive slot's staged queries
	for _, tc := range []struct {
		name      string
		naive     bool
		warm      bool
		wantCalls int64
	}{{"profiled", false, true, 1}, {"bo-cold", false, false, 2}, {"naive-cold", true, false, 2}, {"naive-warm", true, true, 1}} {
		db := engine.OpenTPCH(1, 0.05)
		st := twoQueryState(t, db)
		warmSQL := ""
		if tc.warm {
			warmSQL = warmWith(t, ref, st, 0, 4)
		}
		s := &Searcher{Kind: engine.Cardinality, Naive: tc.naive}
		before := dbCalls(db)
		res := s.optimizeTemplate(context.Background(), rand.New(rand.NewSource(1)), st, stats.Interval{Lo: 0, Hi: 100}, 20)
		calls := dbCalls(db) - before
		if len(res.obs) != 20 {
			t.Fatalf("%s: staged %d probes, want 20", tc.name, len(res.obs))
		}
		// A Naive slot draws its wave from rng alone, so the warm slot
		// must stage the cold slot's queries in the same order.
		if tc.naive {
			for i, o := range res.obs {
				if !tc.warm {
					naiveOrder = append(naiveOrder, o.SQL)
				} else if o.SQL != naiveOrder[i] {
					t.Fatalf("%s: probe %d staged %q, the wave's point is %q", tc.name, i, o.SQL, naiveOrder[i])
				}
			}
		}
		unseen := map[string]bool{}
		for _, o := range res.obs {
			if o.SQL != warmSQL {
				unseen[o.SQL] = true
			}
		}
		if calls != tc.wantCalls || calls != int64(len(unseen)) {
			t.Errorf("%s: %d engine evaluations for %d distinct unseen queries, want %d", tc.name, calls, len(unseen), tc.wantCalls)
		}
		if int64(res.hits) != 20-calls {
			t.Errorf("%s: %d memo hits, want %d", tc.name, res.hits, 20-calls)
		}
		for i, o := range res.obs {
			want, err := ref.Cost(context.Background(), o.SQL, engine.Cardinality)
			if err != nil {
				t.Fatal(err)
			}
			if o.Cost != want {
				t.Fatalf("%s: probe %d staged cost %v, a DBMS call gives %v", tc.name, i, o.Cost, want)
			}
		}
	}

	// Through Run, every memo hit still counts as an evaluation and lands in
	// the template's observations, and the search_memo_hits counter holds
	// exactly the evaluations no engine call made. The two-query space is
	// too small for BO's closeness filters, so Run takes the Naive path.
	db := engine.OpenTPCH(1, 0.05)
	st := twoQueryState(t, db)
	warmWith(t, ref, st, 0, 4)
	collector := obs.NewCollector()
	s := &Searcher{Kind: engine.Cardinality, Naive: true}
	rst := s.Run(obs.NewContext(context.Background(), collector), []*workload.TemplateState{st}, workload.NewPool(stats.Uniform(0, 1500, 5, 60)))
	if rst.Evaluations < 20 || rst.Evaluations+4 != len(st.Profile.Obs) {
		t.Fatalf("Stats.Evaluations = %d, observations = %d (4 profiled)", rst.Evaluations, len(st.Profile.Obs))
	}
	hits, calls := collector.Snapshot().Counter(obs.MSearchMemoHits), dbCalls(db)
	if hits+calls != int64(rst.Evaluations) || calls >= hits {
		t.Fatalf("%d memo hits + %d engine evaluations, over %d search evaluations of a two-query space", hits, calls, rst.Evaluations)
	}
}

// TestMemoHitFailsWhenCancelled checks that a memo hit behaves like a probe
// under cancellation: it is neither staged nor reported, and nothing reaches
// the engine.
func TestMemoHitFailsWhenCancelled(t *testing.T) {
	for _, naive := range []bool{false, true} {
		db := engine.OpenTPCH(1, 0.05)
		st := twoQueryState(t, db)
		s := &Searcher{Kind: engine.Cardinality, Naive: naive}
		iv := stats.Interval{Lo: 0, Hi: 100}
		warm := s.optimizeTemplate(context.Background(), rand.New(rand.NewSource(1)), st, iv, 20)
		st.Profile.Obs = append(st.Profile.Obs, warm.obs...)
		queries := map[string]bool{}
		for _, o := range warm.obs {
			if _, ok := st.Profile.Known(o.SQL); !ok {
				t.Fatal("a staged probe is not in the template's memo")
			}
			queries[o.SQL] = true
		}
		if len(queries) != 2 {
			t.Fatalf("naive=%v: the warm-up slot reached %d of the 2 queries", naive, len(queries))
		}

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		before := dbCalls(db)
		res := s.optimizeTemplate(ctx, rand.New(rand.NewSource(2)), st, iv, 20)
		if len(res.obs) != 0 || res.hits != 0 {
			t.Fatalf("naive=%v: cancelled slot staged %d probes, %d memo hits", naive, len(res.obs), res.hits)
		}
		if calls := dbCalls(db) - before; calls != 0 {
			t.Fatalf("naive=%v: cancelled slot made %d engine evaluations", naive, calls)
		}
	}
}
