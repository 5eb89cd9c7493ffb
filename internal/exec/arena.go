package exec

import "sqlbarber/internal/storage"

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

// hashIndex is a chained hash index over one column of a row list: head maps
// a value hash to the first position (+1) of its chain, and next[p] links
// position p to the next position (+1, 0 ends the chain) with the same hash,
// in list order. Rows whose key is NULL are not indexed.
type hashIndex struct {
	head map[uint64]int32
	next []int32
}

// buildIndex checks out a hash index and fills it over column col of the
// rows sel selects (positions index sel), or of every row when sel is nil
// (positions index rows). Rows shorter than col+1 are skipped.
func (a *Arena) buildIndex(rows []storage.Row, sel []int32, col int) *hashIndex {
	n := len(rows)
	if sel != nil {
		n = len(sel)
	}
	var hi *hashIndex
	if k := len(a.indexes); k > 0 {
		hi = a.indexes[k-1]
		a.indexes = a.indexes[:k-1]
	} else {
		hi = &hashIndex{head: make(map[uint64]int32, n)}
	}
	if cap(hi.next) < n {
		hi.next = make([]int32, n)
	}
	hi.next = hi.next[:n]
	// Walk backwards so each chain, built by prepending, lists its positions
	// in ascending order.
	for p := n - 1; p >= 0; p-- {
		var r storage.Row
		if sel != nil {
			r = rows[sel[p]]
		} else {
			r = rows[p]
		}
		if col >= len(r) || r[col].IsNull() {
			continue
		}
		h := r[col].Hash()
		hi.next[p] = hi.head[h]
		hi.head[h] = int32(p + 1)
	}
	return hi
}

// putIndex checks a hash index back in, emptied. Indexes over more than
// arenaMaxList rows are dropped (a Go map never shrinks).
func (a *Arena) putIndex(hi *hashIndex) {
	if len(hi.next) > arenaMaxList || len(a.indexes) >= arenaMaxFree {
		return
	}
	clear(hi.head)
	a.indexes = append(a.indexes, hi)
}
