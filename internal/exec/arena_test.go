package exec

import (
	"testing"

	"sqlbarber/internal/catalog"
	"sqlbarber/internal/plan"
	"sqlbarber/internal/sqlparser"
	"sqlbarber/internal/sqltypes"
	"sqlbarber/internal/storage"
)

// checkArenaBounded asserts the arena's retention caps.
func checkArenaBounded(t *testing.T, a *Arena) {
	t.Helper()
	sum := 0
	for _, b := range a.lists {
		if cap(b) > arenaMaxList {
			t.Errorf("arena keeps a list of capacity %d > %d", cap(b), arenaMaxList)
		}
		sum += cap(b)
	}
	if sum != a.retained {
		t.Errorf("arena accounts %d retained entries, lists hold %d", a.retained, sum)
	}
	if sum > arenaMaxRetained {
		t.Errorf("arena retains %d list entries > %d", sum, arenaMaxRetained)
	}
	if len(a.lists) > arenaMaxFree || len(a.indexes) > arenaMaxFree {
		t.Errorf("arena keeps %d lists and %d indexes, cap %d each", len(a.lists), len(a.indexes), arenaMaxFree)
	}
	for _, hi := range a.indexes {
		if len(hi.next) > arenaMaxList || len(hi.head) != 0 {
			t.Errorf("arena keeps an index over %d rows with %d live heads", len(hi.next), len(hi.head))
		}
	}
}

func TestArenaDropsOversizedBuffers(t *testing.T) {
	var a Arena
	a.putList(make([]int32, 0, arenaMaxList+1))
	a.putIndex(&hashIndex{head: map[uint64]int32{1: 1}, next: make([]int32, arenaMaxList+1)})
	if len(a.lists) != 0 || len(a.indexes) != 0 {
		t.Fatalf("oversized buffers were kept: %d lists, %d indexes", len(a.lists), len(a.indexes))
	}
	for i := 0; i < 2*arenaMaxFree; i++ {
		a.putList(make([]int32, 0, arenaMaxList))
		a.putIndex(&hashIndex{head: map[uint64]int32{7: 1}, next: make([]int32, 4)})
	}
	checkArenaBounded(t, &a)
	if got := a.getList(10); cap(got) != arenaMaxList {
		t.Fatalf("getList(10) = cap %d, want a recycled list of cap %d", cap(got), arenaMaxList)
	}
}

func TestArenaGetListPrefersSmallestFit(t *testing.T) {
	var a Arena
	for _, c := range []int{64, 8, 1024, 16} {
		a.putList(make([]int32, 0, c))
	}
	for _, tc := range []struct{ hint, want int }{{10, 16}, {2000, 1024}, {1, 8}, {64, 64}} {
		got := a.getList(tc.hint)
		if cap(got) != tc.want {
			t.Fatalf("getList(%d) = cap %d, want %d", tc.hint, cap(got), tc.want)
		}
		a.putList(got)
	}
	if a.retained != 64+8+1024+16 {
		t.Fatalf("retained %d after balanced get/put", a.retained)
	}
}

// TestArenaStaysBoundedAcrossProbes runs many probes through one arena, as
// a session does, mixing a cross join whose tuple lists outgrow the retention
// cap with small filtered probes: the oversized lists are dropped, not kept.
func TestArenaStaysBoundedAcrossProbes(t *testing.T) {
	const n = 600 // 600 x 600 tuples of 2 entries: 720k entries > arenaMaxList
	schema := &catalog.Schema{
		Name: "big",
		Tables: []*catalog.Table{
			{Name: "a", Columns: []catalog.Column{{Name: "x", Type: catalog.TypeInt}}},
			{Name: "b", Columns: []catalog.Column{{Name: "y", Type: catalog.TypeInt}}},
		},
	}
	db := storage.NewDatabase(schema)
	for i := 0; i < n; i++ {
		db.Table("a").Append(storage.Row{sqltypes.NewInt(int64(i))})
		db.Table("b").Append(storage.Row{sqltypes.NewInt(int64(i % 50))})
	}
	db.Analyze()
	plans := map[string]*plan.Query{}
	for _, sql := range []string{
		"SELECT COUNT(*) FROM a JOIN b ON a.x >= b.y - 100",
		"SELECT a.x, COUNT(*) FROM a JOIN b ON a.x = b.y WHERE a.x < 20 GROUP BY a.x",
		"SELECT x FROM a WHERE x IN (SELECT y FROM b WHERE y > 40)",
	} {
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		q, err := plan.Build(schema, stmt)
		if err != nil {
			t.Fatal(err)
		}
		plans[sql] = q
	}
	var a Arena
	for i := 0; i < 3; i++ {
		for sql, q := range plans {
			ex := &executor{db: db, ar: &a}
			want, err := Run(db, q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := run(ex, q)
			if err != nil {
				t.Fatal(err)
			}
			if got.RowsTouched != want.RowsTouched || len(got.Rows) != len(want.Rows) {
				t.Fatalf("%s: shared arena gives %d rows / %d touched, fresh arena %d / %d",
					sql, len(got.Rows), got.RowsTouched, len(want.Rows), want.RowsTouched)
			}
			checkArenaBounded(t, &a)
		}
	}
	if len(a.lists) == 0 || len(a.indexes) == 0 {
		t.Fatalf("arena recycled nothing: %d lists, %d indexes", len(a.lists), len(a.indexes))
	}
}
