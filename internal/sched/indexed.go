package sched

import (
	"sync"
	"sync/atomic"
)

// RunIndexed executes fn(worker, i) for every i in [0, n) on at most
// workers goroutines, handing out indices in increasing order through a
// shared atomic counter. workers <= 1 (or n <= 1) degenerates to a plain
// loop on the calling goroutine, so the sequential path pays nothing for
// the abstraction and parallel/serial runs share one code path. Callers
// that need a deterministic result give each index its own result slot
// and merge the slots in index order after RunIndexed returns.
func RunIndexed(n, workers int, fn func(worker, i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}
