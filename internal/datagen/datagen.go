// Package datagen builds the two evaluation databases of §6.1 as deterministic
// in-memory datasets: a TPC-H-shaped business-analytics schema (8 tables) and
// an IMDB/JOB-shaped movie schema (21 tables). Row counts scale linearly with
// a scale factor so tests can run small while benchmarks run larger.
//
// The generators substitute for the paper's TPC-H SF10 and real IMDB dumps
// (unavailable offline); they preserve what SQLBarber actually depends on:
// the join graphs, column types, value skew, and data volumes whose EXPLAIN
// costs span the target range.
package datagen

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"sqlbarber/internal/catalog"
	"sqlbarber/internal/storage"
)

// columnGen produces the value of one column for row i: exactly one of
// ints, floats and strs is set, the one of the column's type.
type columnGen struct {
	col    catalog.Column
	ints   func(rng *rand.Rand, i int) int64
	floats func(rng *rand.Rand, i int) float64
	strs   func(rng *rand.Rand, i int) string
}

// tableSpec declares one generated table.
type tableSpec struct {
	name string
	rows int
	pk   string
	fks  []catalog.ForeignKey
	cols []columnGen
}

func buildDatabase(name string, seed int64, specs []tableSpec) *storage.Database {
	schema := &catalog.Schema{Name: name}
	for _, ts := range specs {
		t := &catalog.Table{Name: ts.name, PrimaryKey: ts.pk, ForeignKeys: ts.fks}
		for _, cg := range ts.cols {
			c := cg.col
			// Primary keys and FK columns get simulated indexes.
			if c.Name == ts.pk {
				c.Indexed = true
			}
			for _, fk := range ts.fks {
				if fk.Column == c.Name {
					c.Indexed = true
				}
			}
			t.Columns = append(t.Columns, c)
		}
		schema.Tables = append(schema.Tables, t)
	}
	db := storage.NewDatabase(schema)
	for _, ts := range specs {
		rng := rand.New(rand.NewSource(seed ^ int64(hashName(ts.name))))
		tbl := db.Table(ts.name)
		tbl.Grow(ts.rows)
		// Row by row, column by column: the rng draws keep the order the
		// dataset bytes are pinned in.
		for i := 0; i < ts.rows; i++ {
			for j := range ts.cols {
				cg, col := &ts.cols[j], &tbl.Cols[j]
				switch {
				case cg.ints != nil:
					col.Ints[i] = cg.ints(rng, i)
				case cg.floats != nil:
					col.Floats[i] = cg.floats(rng, i)
				default:
					col.Strs[i] = cg.strs(rng, i)
				}
			}
		}
	}
	db.Analyze()
	return db
}

func hashName(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// ---- column generator helpers ----

func intCol(name string, gen func(rng *rand.Rand, i int) int64) columnGen {
	return columnGen{col: catalog.Column{Name: name, Type: catalog.TypeInt}, ints: gen}
}

func floatCol(name string, gen func(rng *rand.Rand, i int) float64) columnGen {
	return columnGen{col: catalog.Column{Name: name, Type: catalog.TypeFloat}, floats: gen}
}

func strCol(name string, gen func(rng *rand.Rand, i int) string) columnGen {
	return columnGen{col: catalog.Column{Name: name, Type: catalog.TypeString}, strs: gen}
}

// serial generates 1, 2, 3, ... (primary keys).
func serial(name string) columnGen {
	return intCol(name, func(_ *rand.Rand, i int) int64 { return int64(i + 1) })
}

// fkUniform references a parent table of n rows uniformly.
func fkUniform(name string, n int) columnGen {
	return intCol(name, func(rng *rand.Rand, _ int) int64 { return rng.Int63n(int64(maxi(n, 1))) + 1 })
}

// fkZipf references a parent table of n rows with Zipf-like skew, modelling
// the hot-key skew of production data.
func fkZipf(name string, n int, s float64) columnGen {
	return intCol(name, func(rng *rand.Rand, _ int) int64 {
		u := rng.Float64()
		// Inverse-CDF approximation of a Zipf-Mandelbrot distribution.
		rank := math.Pow(float64(n), math.Pow(u, s))
		v := int64(rank)
		if v < 1 {
			v = 1
		}
		if v > int64(n) {
			v = int64(n)
		}
		return v
	})
}

func uniformInt(name string, lo, hi int64) columnGen {
	return intCol(name, func(rng *rand.Rand, _ int) int64 { return lo + rng.Int63n(hi-lo+1) })
}

func uniformFloat(name string, lo, hi float64) columnGen {
	return floatCol(name, func(rng *rand.Rand, _ int) float64 { return lo + rng.Float64()*(hi-lo) })
}

// lognormFloat produces a heavy-tailed positive column.
func lognormFloat(name string, mu, sigma, cap float64) columnGen {
	return floatCol(name, func(rng *rand.Rand, _ int) float64 {
		v := math.Exp(mu + sigma*rng.NormFloat64())
		if v > cap {
			v = cap
		}
		return math.Round(v*100) / 100
	})
}

// categorical picks uniformly from a fixed vocabulary.
func categorical(name string, vocab []string) columnGen {
	return strCol(name, func(rng *rand.Rand, _ int) string { return vocab[rng.Intn(len(vocab))] })
}

// vocabulary synthesizes n distinct tokens with a prefix.
func vocabulary(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s_%04d", prefix, i)
	}
	return out
}

// numbered returns prefix, then n (>= 0) zero-padded to width digits, then
// suffix: fmt.Sprintf("%s%0*d%s", prefix, width, n, suffix) in one
// allocation.
func numbered(prefix string, n, width int, suffix string) string {
	var buf [64]byte
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(n), 10)
	b := append(buf[:0], prefix...)
	for k := len(d); k < width; k++ {
		b = append(b, '0')
	}
	return string(append(append(b, d...), suffix...))
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func scaled(base int, sf float64) int {
	n := int(float64(base) * sf)
	if n < 1 {
		n = 1
	}
	return n
}
