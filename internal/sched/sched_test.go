package sched_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"finishrepair/internal/sched"
)

func TestSubmitRunsAllTasks(t *testing.T) {
	p := sched.NewPool(4)
	defer p.Shutdown()
	var n atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 500; i++ {
		wg.Add(1)
		p.Submit(func(*sched.Worker) {
			n.Add(1)
			wg.Done()
		})
	}
	wg.Wait()
	if n.Load() != 500 {
		t.Fatalf("ran %d tasks, want 500", n.Load())
	}
}

func TestSpawnFansOut(t *testing.T) {
	p := sched.NewPool(4)
	defer p.Shutdown()
	var n atomic.Int64
	var wg sync.WaitGroup
	const width, depth = 3, 5 // 3^0 + ... + 3^5 spawned tasks
	var task func(w *sched.Worker, d int)
	task = func(w *sched.Worker, d int) {
		defer wg.Done()
		n.Add(1)
		if d == 0 {
			return
		}
		for i := 0; i < width; i++ {
			wg.Add(1)
			w.Spawn(func(w *sched.Worker) { task(w, d-1) })
		}
	}
	wg.Add(1)
	p.Submit(func(w *sched.Worker) { task(w, depth) })
	wg.Wait()
	want := int64(0)
	pow := int64(1)
	for d := 0; d <= depth; d++ {
		want += pow
		pow *= width
	}
	if n.Load() != want {
		t.Fatalf("ran %d tasks, want %d", n.Load(), want)
	}
}

func TestRunOneHelpsWhileBlocked(t *testing.T) {
	p := sched.NewPool(1) // single worker: helping is mandatory
	defer p.Shutdown()
	done := make(chan struct{})
	p.Submit(func(w *sched.Worker) {
		var pending atomic.Int64
		pending.Store(1)
		w.Spawn(func(*sched.Worker) { pending.Add(-1) })
		// The only worker is us; the child can only run if we help.
		for pending.Load() > 0 {
			if !w.RunOne() {
				t.Error("RunOne found nothing although a task is pending")
				break
			}
		}
		close(done)
	})
	<-done
}

func TestPoolSize(t *testing.T) {
	p := sched.NewPool(3)
	defer p.Shutdown()
	if p.Size() != 3 {
		t.Errorf("Size = %d, want 3", p.Size())
	}
	q := sched.NewPool(0)
	defer q.Shutdown()
	if q.Size() < 1 {
		t.Errorf("default pool size %d < 1", q.Size())
	}
}

func TestShutdownIdempotent(t *testing.T) {
	p := sched.NewPool(2)
	p.Shutdown()
	p.Shutdown() // must not panic or hang
}

// TestSubmitShutdownRace hammers the Submit/Shutdown race: tasks
// submitted concurrently with pool shutdown must all run exactly once —
// either on a worker or inline on the detached fallback — and none may
// be stranded in the global queue. Run under -race this also checks the
// synchronization of the close handshake itself.
func TestSubmitShutdownRace(t *testing.T) {
	for trial := 0; trial < 100; trial++ {
		p := sched.NewPool(4)
		const n = 64
		var ran atomic.Int64
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				p.Submit(func(*sched.Worker) { ran.Add(1) })
			}
		}()
		p.Shutdown()
		wg.Wait()
		// Every submitted task has returned from Submit (inline) or been
		// drained by a worker before wg.Wait in Shutdown returned; a second
		// Shutdown is a no-op and everything must have run by now.
		p.Shutdown()
		if got := ran.Load(); got != n {
			t.Fatalf("trial %d: %d/%d tasks ran — tasks lost in the Submit/Shutdown race", trial, got, n)
		}
	}
}

// TestSubmitAfterShutdown: a task submitted to a fully stopped pool
// still runs (inline), including children it spawns.
func TestSubmitAfterShutdown(t *testing.T) {
	p := sched.NewPool(2)
	p.Shutdown()
	var ran atomic.Int64
	p.Submit(func(w *sched.Worker) {
		ran.Add(1)
		w.Spawn(func(*sched.Worker) { ran.Add(1) })
	})
	if got := ran.Load(); got != 2 {
		t.Fatalf("%d/2 tasks ran after shutdown", got)
	}
}

// TestRunIndexed: every index runs exactly once, on a worker id below
// min(workers, n); at workers <= 1 the indices run in order on the
// calling goroutine as worker 0.
func TestRunIndexed(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{0, 4}, {1, 4}, {5, 0}, {5, 1}, {7, 3}, {100, 8}, {3, 16},
	} {
		hits := make([]atomic.Int32, tc.n)
		var mu sync.Mutex
		var order []int
		limit := max(min(tc.workers, tc.n), 1)
		sched.RunIndexed(tc.n, tc.workers, func(w, i int) {
			hits[i].Add(1)
			if w < 0 || w >= limit {
				t.Errorf("n=%d workers=%d: worker id %d out of range [0,%d)", tc.n, tc.workers, w, limit)
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
		for i := range hits {
			if h := hits[i].Load(); h != 1 {
				t.Errorf("n=%d workers=%d: index %d ran %d times, want 1", tc.n, tc.workers, i, h)
			}
		}
		if tc.workers <= 1 {
			for i, got := range order {
				if got != i {
					t.Errorf("n=%d workers=%d: sequential order %v, want ascending", tc.n, tc.workers, order)
					break
				}
			}
		}
	}
}
