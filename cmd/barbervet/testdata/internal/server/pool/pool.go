// Package pool is a barbervet fixture emulating internal/server, one of the
// two internal packages R011 lets start goroutines: the same pool as the
// badpool fixture, with no finding.
package pool

import "sync"

// Square squares xs on workers goroutines.
func Square(xs []int, workers int) []int {
	out := make([]int, len(xs))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
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
