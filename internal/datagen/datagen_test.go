package datagen

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"sqlbarber/internal/sqltypes"
	"sqlbarber/internal/storage"
)

func TestTPCHShape(t *testing.T) {
	db := TPCH(1, 0.1)
	want := map[string]int{
		"region": 5, "nation": 25, "supplier": 10, "customer": 150,
		"part": 200, "partsupp": 800, "orders": 1500, "lineitem": 6000,
	}
	if got := len(db.Schema.Tables); got != 8 {
		t.Fatalf("TPC-H has %d tables, want 8", got)
	}
	for name, rows := range want {
		tbl := db.Table(name)
		if tbl == nil {
			t.Fatalf("missing table %s", name)
		}
		if tbl.Len() != rows {
			t.Errorf("%s has %d rows, want %d", name, tbl.Len(), rows)
		}
		if db.Schema.Table(name).RowCount != rows {
			t.Errorf("%s catalog rowcount stale", name)
		}
	}
}

func TestIMDBShape(t *testing.T) {
	db := IMDB(1, 0.1)
	if got := len(db.Schema.Tables); got != 21 {
		t.Fatalf("IMDB has %d tables, want 21", got)
	}
	for _, name := range []string{"title", "name", "cast_info", "movie_info", "kind_type",
		"role_type", "company_type", "link_type", "comp_cast_type", "info_type",
		"char_name", "company_name", "keyword", "movie_info_idx", "movie_keyword",
		"movie_companies", "movie_link", "complete_cast", "person_info", "aka_name", "aka_title"} {
		if db.Table(name) == nil {
			t.Errorf("missing table %s", name)
		}
	}
}

// checkFKIntegrity verifies every FK value references an existing parent key.
func checkFKIntegrity(t *testing.T, db *storage.Database) {
	t.Helper()
	for _, tbl := range db.Schema.Tables {
		for _, fk := range tbl.ForeignKeys {
			parent := db.Table(fk.RefTable)
			if parent == nil {
				t.Fatalf("%s FK references missing table %s", tbl.Name, fk.RefTable)
			}
			parentKeys := map[sqltypes.Value]bool{}
			pIdx := parent.Meta.ColumnIndex(fk.RefColumn)
			if pIdx < 0 {
				t.Fatalf("%s FK references missing column %s.%s", tbl.Name, fk.RefTable, fk.RefColumn)
			}
			for i := 0; i < parent.Len(); i++ {
				parentKeys[parent.Cols[pIdx].Value(i)] = true
			}
			cIdx := tbl.ColumnIndex(fk.Column)
			data := db.Table(tbl.Name)
			for i := 0; i < data.Len(); i++ {
				if v := data.Cols[cIdx].Value(i); !parentKeys[v] {
					t.Fatalf("%s row %d: FK %s=%v has no parent in %s.%s",
						tbl.Name, i, fk.Column, v, fk.RefTable, fk.RefColumn)
				}
			}
		}
	}
}

func TestTPCHForeignKeyIntegrity(t *testing.T) {
	checkFKIntegrity(t, TPCH(3, 0.05))
}

func TestIMDBForeignKeyIntegrity(t *testing.T) {
	checkFKIntegrity(t, IMDB(3, 0.05))
}

func TestDeterminism(t *testing.T) {
	a := TPCH(42, 0.05)
	b := TPCH(42, 0.05)
	ta, tb := a.Table("orders"), b.Table("orders")
	if ta.Len() != tb.Len() {
		t.Fatal("row counts differ for same seed")
	}
	for i := 0; i < ta.Len(); i++ {
		ra, rb := ta.Row(i), tb.Row(i)
		for j := range ra {
			if ra[j].Compare(rb[j]) != 0 {
				t.Fatalf("row %d col %d differs: %v vs %v", i, j, ra[j], rb[j])
			}
		}
	}
	c := TPCH(43, 0.05)
	diff := false
	tc := c.Table("orders")
	for i := 0; i < ta.Len(); i++ {
		if ta.Cols[3].Floats[i] != tc.Cols[3].Floats[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical data")
	}
}

func TestStatsPopulated(t *testing.T) {
	db := TPCH(1, 0.05)
	col := db.Schema.Table("lineitem").Column("l_quantity")
	if col.Stats.NDistinct == 0 || col.Stats.Min.IsNull() {
		t.Fatal("ANALYZE must populate stats during generation")
	}
	if col.Stats.Min.Float() < 1 || col.Stats.Max.Float() > 50 {
		t.Fatalf("l_quantity range [%v,%v] outside spec", col.Stats.Min, col.Stats.Max)
	}
}

func TestZipfSkew(t *testing.T) {
	db := TPCH(1, 0.2)
	// o_custkey is Zipf-skewed: the most common customer must appear far
	// more often than the average.
	orders := db.Table("orders")
	idx := orders.Meta.ColumnIndex("o_custkey")
	counts := map[int64]int{}
	for _, v := range orders.Cols[idx].Ints {
		counts[v]++
	}
	maxCount := 0
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	avg := float64(orders.Len()) / float64(len(counts))
	if float64(maxCount) < 3*avg {
		t.Errorf("o_custkey skew too weak: max %d vs avg %.1f", maxCount, avg)
	}
}

func TestScaledMinimumOne(t *testing.T) {
	db := TPCH(1, 0.00001)
	for _, tbl := range db.Schema.Tables {
		if tbl.RowCount < 1 {
			t.Errorf("%s has %d rows at tiny sf; want >= 1", tbl.Name, tbl.RowCount)
		}
	}
}

// TestDatasetSaveHashPinned pins the bytes of storage.Database.Save, whose
// schema JSON carries every column's ANALYZE statistics, for both datasets
// over several seeds and scale factors. The constants were computed with the
// map-counting ANALYZE that the sorted single pass replaced, so a change to
// any statistic (a sign bit, an MCV tie, a histogram bound) fails here.
func TestDatasetSaveHashPinned(t *testing.T) {
	for _, tc := range pinnedDatasets {
		db := TPCH(tc.seed, tc.sf)
		if tc.dataset == "imdb" {
			db = IMDB(tc.seed, tc.sf)
		}
		var buf bytes.Buffer
		if err := db.Save(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:8]); got != tc.save {
			t.Errorf("%s seed %d sf %v: Save hash %s, want %s", tc.dataset, tc.seed, tc.sf, got, tc.save)
		}
	}
}

// TestSchemaStatsHashPinned pins the JSON of each pinned dataset's schema,
// which carries every ANALYZE statistic, on its own: Save's hash also
// covers the rows, so this one isolates a change in the statistics. The
// constants were recorded with the row store that the typed column vectors
// replaced.
func TestSchemaStatsHashPinned(t *testing.T) {
	for _, tc := range pinnedDatasets {
		db := TPCH(tc.seed, tc.sf)
		if tc.dataset == "imdb" {
			db = IMDB(tc.seed, tc.sf)
		}
		js, err := json.Marshal(db.Schema)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(js)
		if got := hex.EncodeToString(sum[:8]); got != tc.stats {
			t.Errorf("%s seed %d sf %v: schema JSON hash %s, want %s", tc.dataset, tc.seed, tc.sf, got, tc.stats)
		}
	}
}

// pinnedDatasets are the (dataset, seed, SF) cases whose bytes the pin
// tests hold: save and stats are the first 8 bytes of the SHA-256 of
// Save's output and of the schema's JSON.
var pinnedDatasets = []struct {
	dataset     string
	seed        int64
	sf          float64
	save, stats string
}{
	{"tpch", 1, 0.01, "10f618779867f440", "132b028debe4c020"},
	{"tpch", 1, 0.1, "e0c47201ea654dad", "841ffe40057fa6be"},
	{"tpch", 1, 0.5, "feaac5890bb28713", "84565c5ae752a055"},
	{"tpch", 1000, 0.01, "6553c587ceadf909", "247691377535d08d"},
	{"tpch", 1000, 0.1, "cfd7adc587ebda31", "9e2d386a98505057"},
	{"tpch", 1000, 0.5, "55deea25ffd21a1d", "dbe70d19927b4aa6"},
	{"tpch", 1001, 0.01, "faa45826d01bd5af", "1e3d4aa06200706d"},
	{"tpch", 1001, 0.1, "5b8a89657635a0f5", "74caa7805befdede"},
	{"tpch", 1001, 0.5, "f4a29d0ddd8e059e", "a514b976e20e5dfc"},
	{"imdb", 1, 0.01, "d80d8eafea19ddcb", "6cd2184d2331b003"},
	{"imdb", 1, 0.1, "45346a51ee71a71c", "0dfa32aa98760fb3"},
	{"imdb", 1, 0.5, "d143fa59058eac5c", "df20a4a3dc57366f"},
	{"imdb", 1000, 0.01, "9a0c391174ab8f03", "c0459ac3e418aed1"},
	{"imdb", 1000, 0.1, "6709b11a2914d94a", "04a66792419ae1e2"},
	{"imdb", 1000, 0.5, "12b3903838ad1536", "46f976e67d027721"},
	{"imdb", 1001, 0.01, "f1ee67a8837a1957", "c359e54a194c7fd7"},
	{"imdb", 1001, 0.1, "7c0cf904f25271e6", "83dfe0671cbc7719"},
	{"imdb", 1001, 0.5, "9202ffa49806f482", "6ad484557138c9eb"},
}
