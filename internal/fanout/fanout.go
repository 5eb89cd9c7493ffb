// Package fanout is the one place the product runs indexed work on several
// goroutines. Every fan-out in the pipeline (a generation per specification,
// a profiling sweep per template, a BO run per search slot, a tree per
// forest fit, a probe per binding) is a Run call whose caller writes each
// task's result into a slot of a position-indexed slice and merges the
// slice in index order, so the merged output never depends on the worker
// count or on which goroutine finished first.
package fanout

import "sync"

// Run calls task(slot, i) for every i in [0, n) on at most workers
// goroutines and returns once every started task has finished.
//
//   - slot is in [0, min(workers, n)), and no two running tasks share one,
//     so a caller can keep one piece of scratch per slot.
//   - Indices are handed out in increasing order.
//   - With workers <= 1 (or n <= 1) the tasks run inline on the caller's
//     goroutine, in order, with no goroutine, channel or lock.
//   - Once a task returns an error, no further index is handed out. Since
//     indices go out in order, every index below the lowest failing one has
//     run, at any worker count. Run returns the error of the lowest failing
//     index, or nil.
func Run(workers, n int, task func(slot, i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := task(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		mu       sync.Mutex
		next     int
		errAt    = n // lowest failing index, n while none has failed
		firstErr error
		wg       sync.WaitGroup
	)
	// take hands out the next index, or false once the range is exhausted or
	// a task has failed.
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if errAt < n || next >= n {
			return 0, false
		}
		next++
		return next - 1, true
	}
	fail := func(i int, err error) {
		mu.Lock()
		defer mu.Unlock()
		if i < errAt {
			errAt, firstErr = i, err
		}
	}
	wg.Add(workers)
	for slot := 0; slot < workers; slot++ {
		go func() {
			defer wg.Done()
			for i, ok := take(); ok; i, ok = take() {
				if err := task(slot, i); err != nil {
					fail(i, err)
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
