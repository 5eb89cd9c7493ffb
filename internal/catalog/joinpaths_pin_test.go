package catalog_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"sqlbarber/internal/catalog"
	"sqlbarber/internal/datagen"
)

// TestJoinPathsPinned pins JoinPaths' output, order included, for the join
// counts the generator asks for and the limits its callers pass (the LLM's
// 10 and 20, the generator's 64), on both datasets. The hashes were
// recorded before the sort key was hoisted out of the comparator, so a
// change to the permutation fails here.
func TestJoinPathsPinned(t *testing.T) {
	want := map[string]string{
		"tpch": "d94976cee74b2bef",
		"imdb": "30911f88aa5cfe83",
	}
	for _, ds := range []struct {
		name   string
		schema *catalog.Schema
	}{
		{"tpch", datagen.TPCH(1, 0.01).Schema},
		{"imdb", datagen.IMDB(1, 0.01).Schema},
	} {
		h := sha256.New()
		for numJoins := 0; numJoins <= 3; numJoins++ {
			for _, limit := range []int{10, 20, 64} {
				fmt.Fprintf(h, "joins=%d limit=%d\n", numJoins, limit)
				for _, p := range ds.schema.JoinPaths(numJoins, limit) {
					edges := make([]string, len(p.Edges))
					for i, e := range p.Edges {
						edges[i] = e.String()
					}
					fmt.Fprintf(h, "%s | %s\n", strings.Join(p.Tables, ","), strings.Join(edges, "; "))
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)[:8]); got != want[ds.name] {
			t.Errorf("%s: JoinPaths hash %s, want %s", ds.name, got, want[ds.name])
		}
	}
}
