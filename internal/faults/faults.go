// Package faults is a deterministic fault-injection registry for the
// repair pipeline. Each pipeline phase calls Inject at a named point;
// in production nothing is armed and the call is one atomic load. Tests
// arm a point to return an error or to panic, then drive the public API
// and assert that the failure surfaces as a typed error identifying the
// phase — proving the panic-containment and error-taxonomy layers
// actually cover every phase.
//
// Injection is deterministic: an armed fault fires on the exact hit
// number it was armed for (first hit by default) and exactly once.
package faults

import (
	"fmt"
	"sync"
	"sync/atomic"

	"finishrepair/internal/obs"
)

// Injection point names, one (at least) per pipeline phase.
const (
	Parse         = "parse"
	SemCheck      = "sem-check"
	Detect        = "detect"
	TraceIO       = "trace-io" // only with repair.Options.UseTraceFiles; goes with it
	GroupNSLCA    = "group-nslca"
	DPPlace       = "dp-place"
	Rewrite       = "rewrite"
	SequentialRun = "sequential-run"
	ParallelRun   = "parallel-run"
)

// Points lists every registered injection point, for tests that sweep
// all phases.
func Points() []string {
	return []string{Parse, SemCheck, Detect, TraceIO, GroupNSLCA, DPPlace, Rewrite, SequentialRun, ParallelRun}
}

var mInjected = obs.Default().Counter("fault.injected")

type plan struct {
	fireAt int // hit number (1-based) on which to fire
	err    error
	panicV any // non-nil: panic with this value instead of returning err
	fired  bool
}

var (
	armed atomic.Bool // fast-path: any plan armed?
	mu    sync.Mutex
	plans map[string]*plan
	hits  map[string]int
)

// ArmError makes hit number n (1-based; n <= 1 means the next hit) of
// point return err from Inject, once.
func ArmError(point string, n int, err error) { arm(point, n, err, nil) }

// ArmPanic makes hit number n (1-based; n <= 1 means the next hit) of
// point panic with v, once.
func ArmPanic(point string, n int, v any) { arm(point, n, nil, v) }

func arm(point string, n int, err error, v any) {
	if n < 1 {
		n = 1
	}
	mu.Lock()
	defer mu.Unlock()
	if plans == nil {
		plans = make(map[string]*plan)
	}
	plans[point] = &plan{fireAt: hitsLocked(point) + n, err: err, panicV: v}
	armed.Store(true)
}

func hitsLocked(point string) int {
	if hits == nil {
		return 0
	}
	return hits[point]
}

// Reset disarms every point and clears hit counters.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	plans = nil
	hits = nil
	armed.Store(false)
}

// Hits returns how many times point has been reached since the last
// Reset while any fault was armed (hit counting is disabled on the
// production fast path).
func Hits(point string) int {
	mu.Lock()
	defer mu.Unlock()
	return hitsLocked(point)
}

// Inject is called by pipeline phases at their injection point. It
// returns the armed error, panics with the armed value, or returns nil.
// Safe from any goroutine (the parallel-run point fires inside tasks).
func Inject(point string) error {
	if !armed.Load() {
		return nil
	}
	mu.Lock()
	if hits == nil {
		hits = make(map[string]int)
	}
	hits[point]++
	p := plans[point]
	if p == nil || p.fired || hits[point] != p.fireAt {
		mu.Unlock()
		return nil
	}
	p.fired = true
	mu.Unlock()
	mInjected.Inc()
	if p.panicV != nil {
		panic(p.panicV)
	}
	if p.err != nil {
		return fmt.Errorf("%s: injected fault: %w", point, p.err)
	}
	return nil
}
