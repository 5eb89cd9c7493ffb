package exec

import (
	"sqlbarber/internal/sqltypes"
	"sqlbarber/internal/storage"
)

// Arena is executor scratch that outlives one probe: the row-index lists a
// query pipeline passes between its steps (scan outputs and tuple lists) and
// the hash indexes of hash joins and IN-subquery sets. Every buffer is checked
// out for one step and checked back in as soon as the next step has consumed
// it, so a session that executes many probes reuses the same few buffers
// instead of handing each probe's intermediate state to the garbage
// collector. Output rows are never arena-backed: a Result stays valid however
// the arena is reused.
//
// Retention is capped. A list longer than arenaMaxList entries, or one that
// would take the free lists past arenaMaxRetained entries or arenaMaxFree
// buffers, is dropped on check-in, and so is an index over more than
// arenaMaxList rows, so one huge probe cannot pin its peak memory in a
// long-lived session. A buffer a failed probe never checked back in is simply
// garbage.
//
// An Arena is single-goroutine state: one arena belongs to one session.
// Nested use (a subquery running while the outer query holds its tuple list)
// is safe because buffers are checked out of the free lists, never shared.
// The zero Arena is ready to use.
type Arena struct {
	lists    [][]int32
	retained int // summed capacity of lists
	indexes  []*hashIndex
}

const (
	// arenaMaxList is the largest list capacity (and index size) the arena
	// keeps for reuse: 2 MiB of int32.
	arenaMaxList = 1 << 19
	// arenaMaxRetained bounds the summed capacity of the free lists: 8 MiB.
	arenaMaxRetained = 1 << 21
	// arenaMaxFree bounds the number of free buffers of each kind.
	arenaMaxFree = 8
)

// getList checks out an empty list for about hint entries: the smallest free
// list with room for hint, else the largest free list, else nil. Append grows
// a list that turns out too small, and the grown list is what gets checked
// back in; a caller with an exact need sizes it with slices.Grow.
func (a *Arena) getList(hint int) []int32 {
	best := -1
	for i, b := range a.lists {
		if best < 0 || fitsBetter(cap(b), cap(a.lists[best]), hint) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	b := a.lists[best]
	last := len(a.lists) - 1
	a.lists[best] = a.lists[last]
	a.lists[last] = nil
	a.lists = a.lists[:last]
	a.retained -= cap(b)
	return b[:0]
}

// fitsBetter reports whether capacity c suits a request for hint entries
// better than capacity d: one that fits beats one that does not, the smaller
// of two that fit wins, and the larger of two that do not.
func fitsBetter(c, d, hint int) bool {
	if (c >= hint) != (d >= hint) {
		return c >= hint
	}
	if c >= hint {
		return c < d
	}
	return c > d
}

// putList checks a list back in. The caller must not touch it again.
func (a *Arena) putList(b []int32) {
	c := cap(b)
	if c == 0 || c > arenaMaxList || a.retained+c > arenaMaxRetained || len(a.lists) >= arenaMaxFree {
		return
	}
	a.lists = append(a.lists, b[:0])
	a.retained += c
}

// hashIndex is a chained hash index over one column of a row list. A chain
// head is the first position (+1) of the rows with one key, and next[p]
// links position p to the next position (+1, 0 ends the chain) with the
// same key, in list order. Numbers key nums by indexKey, strings key strs by
// the string itself, and booleans have their own two heads. Rows whose key
// is NULL are not indexed. nan reports a NaN key, which Compare makes equal
// to every number, so no chain lists all its matches: callers scan instead.
type hashIndex struct {
	nums  map[uint64]int32
	strs  map[string]int32
	bools [2]int32
	next  []int32
	nan   bool
}

// first returns the first position (+1) of the chain of non-NULL v, 0 when
// it has none.
func (hi *hashIndex) first(v *sqltypes.Value) int32 {
	switch v.Kind() {
	case sqltypes.KindString:
		return hi.strs[v.Str()]
	case sqltypes.KindBool:
		return hi.bools[v.Int()&1]
	}
	return hi.nums[indexKey(v)]
}

// getIndex checks out an empty hash index for n positions.
func (a *Arena) getIndex(n int) *hashIndex {
	var hi *hashIndex
	if k := len(a.indexes); k > 0 {
		hi = a.indexes[k-1]
		a.indexes = a.indexes[:k-1]
	} else {
		hi = &hashIndex{}
	}
	hi.bools, hi.nan = [2]int32{}, false
	if cap(hi.next) < n {
		hi.next = make([]int32, n)
	}
	hi.next = hi.next[:n]
	return hi
}

// Each add links position p (+1) at the head of its key's chain. Callers
// walk positions backwards, so a chain lists its positions in ascending
// order.
func (hi *hashIndex) addNum(p int, k uint64) {
	if hi.nums == nil {
		hi.nums = make(map[uint64]int32, len(hi.next))
	}
	hi.next[p] = hi.nums[k]
	hi.nums[k] = int32(p + 1)
}

func (hi *hashIndex) addStr(p int, s string) {
	if hi.strs == nil {
		hi.strs = map[string]int32{}
	}
	hi.next[p] = hi.strs[s]
	hi.strs[s] = int32(p + 1)
}

// buildIndex checks out a hash index and fills it over the rows sel selects
// from a stored column (positions index sel), reading its typed vector.
func (a *Arena) buildIndex(col *storage.Column, sel []int32) *hashIndex {
	hi := a.getIndex(len(sel))
	for p := len(sel) - 1; p >= 0; p-- {
		ri := int(sel[p])
		if col.Null(ri) {
			continue
		}
		switch col.Kind {
		case sqltypes.KindInt:
			hi.addNum(p, intKey(col.Ints[ri]))
		case sqltypes.KindFloat:
			f := col.Floats[ri]
			hi.addNum(p, floatKey(f))
			hi.nan = hi.nan || f != f
		default:
			hi.addStr(p, col.Strs[ri])
		}
	}
	return hi
}

// buildRowIndex checks out a hash index and fills it over the first column
// of result rows (positions index rows), whose values may be of any kind.
// Rows with no column are skipped.
func (a *Arena) buildRowIndex(rows []storage.Row) *hashIndex {
	hi := a.getIndex(len(rows))
	for p := len(rows) - 1; p >= 0; p-- {
		if len(rows[p]) == 0 {
			continue
		}
		switch v := &rows[p][0]; v.Kind() {
		case sqltypes.KindNull:
		case sqltypes.KindString:
			hi.addStr(p, v.Str())
		case sqltypes.KindBool:
			hi.next[p] = hi.bools[v.Int()&1]
			hi.bools[v.Int()&1] = int32(p + 1)
		default:
			hi.addNum(p, indexKey(v))
			hi.nan = hi.nan || isNaN(*v)
		}
	}
	return hi
}

// putIndex checks a hash index back in, emptied. Indexes over more than
// arenaMaxList rows are dropped (a Go map never shrinks).
func (a *Arena) putIndex(hi *hashIndex) {
	if len(hi.next) > arenaMaxList || len(a.indexes) >= arenaMaxFree {
		return
	}
	clear(hi.nums)
	clear(hi.strs)
	a.indexes = append(a.indexes, hi)
}
