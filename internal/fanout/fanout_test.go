package fanout

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// goid returns the current goroutine's id, read from its stack header.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	return string(buf[:bytes.IndexByte(buf, ' ')])
}

// TestRunContract checks, at every worker count and task count, that each
// index runs exactly once, that slots stay in range and are never shared by
// two running tasks, that workers <= 1 runs every task on the caller's
// goroutine, and that Run returns only after every started task finished.
func TestRunContract(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8} {
		for _, n := range []int{0, 1, 100} {
			t.Run(fmt.Sprintf("workers=%d/n=%d", workers, n), func(t *testing.T) {
				slots := max(1, min(workers, n))
				runs := make([]atomic.Int32, n)
				busy := make([]atomic.Bool, slots)
				var started, finished atomic.Int32
				caller := goid()
				var mu sync.Mutex
				var goroutines []string
				err := Run(workers, n, func(slot, i int) error {
					started.Add(1)
					defer finished.Add(1)
					if slot < 0 || slot >= slots {
						t.Errorf("index %d got slot %d, want [0, %d)", i, slot, slots)
						return nil
					}
					if !busy[slot].CompareAndSwap(false, true) {
						t.Errorf("index %d: slot %d already in use", i, slot)
					}
					defer busy[slot].Store(false)
					runs[i].Add(1)
					if workers <= 1 {
						mu.Lock()
						goroutines = append(goroutines, goid())
						mu.Unlock()
					}
					if i%7 == 0 {
						time.Sleep(50 * time.Microsecond) // let other slots run alongside
					}
					return nil
				})
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				if s, f := started.Load(), finished.Load(); s != f {
					t.Fatalf("Run returned with %d started and %d finished tasks", s, f)
				}
				for i := range runs {
					if got := runs[i].Load(); got != 1 {
						t.Errorf("index %d ran %d times, want 1", i, got)
					}
				}
				for _, g := range goroutines {
					if g != caller {
						t.Fatalf("workers=%d ran a task on goroutine %s, want the caller's %s", workers, g, caller)
					}
				}
			})
		}
	}
}

// TestRunStopsAfterError checks that once index k fails every index below k
// has run, that no index is handed out after the failure (only the tasks
// already running beside index k may lie above it), that the error comes
// back, and that every started task has finished.
func TestRunStopsAfterError(t *testing.T) {
	const n, k = 100, 37
	errK := errors.New("task 37")
	for _, workers := range []int{0, 1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ran := make([]atomic.Bool, n)
			var started, finished atomic.Int32
			failed := make(chan struct{})
			err := Run(workers, n, func(slot, i int) error {
				started.Add(1)
				defer finished.Add(1)
				ran[i].Store(true)
				switch {
				case i == k:
					close(failed)
					return errK
				case i > k:
					// Taken beside index k: finish well after it fails, so
					// a free slot asks for its next index only then.
					<-failed
					time.Sleep(2 * time.Millisecond)
				}
				return nil
			})
			if !errors.Is(err, errK) {
				t.Fatalf("Run = %v, want %v", err, errK)
			}
			above := 0
			for i := range ran {
				switch {
				case i < k && !ran[i].Load():
					t.Errorf("index %d below the failing index %d never ran", i, k)
				case i > k && ran[i].Load():
					above++
				}
			}
			if limit := max(workers, 1) - 1; above > limit {
				t.Errorf("%d indices above %d ran, want at most %d (one per other slot)", above, k, limit)
			}
			if s, f := started.Load(), finished.Load(); s != f {
				t.Fatalf("Run returned with %d started and %d finished tasks", s, f)
			}
		})
	}
}

// TestRunReturnsLowestFailingIndex checks that when several running tasks
// fail, Run reports the lowest index, not the last to fail: index 1 fails
// well after index 0.
func TestRunReturnsLowestFailingIndex(t *testing.T) {
	started1, failed0 := make(chan struct{}), make(chan struct{})
	err := Run(2, 2, func(slot, i int) error {
		if i == 0 {
			<-started1 // both indices are out before either fails
			defer close(failed0)
			return errors.New("index 0")
		}
		close(started1)
		<-failed0
		time.Sleep(5 * time.Millisecond)
		return errors.New("index 1")
	})
	if err == nil || err.Error() != "index 0" {
		t.Fatalf("Run = %v, want the error of index 0", err)
	}
}
