// Package badpool is a barbervet fixture emulating internal/search: a
// hand-written worker pool, joined by a WaitGroup so R005 stays silent, that
// R011 flags because it starts goroutines outside internal/fanout.
package badpool

import "sync"

// Square squares xs on workers goroutines.
func Square(xs []int, workers int) []int {
	out := make([]int, len(xs))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() { // R011
			defer wg.Done()
			for i := range idx {
				out[i] = xs[i] * xs[i]
			}
		}()
	}
	for i := range xs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}
