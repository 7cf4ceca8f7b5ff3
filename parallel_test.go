package main_test

import (
	"context"
	"os"
	"strconv"
	"testing"
	"time"

	"finishrepair/internal/bench"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/lang/printer"
	"finishrepair/internal/race"
	"finishrepair/internal/repair"
	"finishrepair/tdr"
)

// testWorkers is the parallel worker count exercised by the determinism
// tests; the CI matrix overrides it via TDR_TEST_WORKERS.
func testWorkers(t *testing.T) int {
	if s := os.Getenv("TDR_TEST_WORKERS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("bad TDR_TEST_WORKERS=%q", s)
		}
		return n
	}
	return 8
}

// repairOutcome is everything a repair run produces that callers can
// observe: the rewritten source and the per-iteration statistics.
type repairOutcome struct {
	source    string
	inserted  int
	races     []int
	nslcas    []int
	dpStates  int64
	degraded  bool
	iterCount int
}

func repairWithWorkers(t *testing.T, src string, workers int) repairOutcome {
	t.Helper()
	prog := parser.MustParse(src)
	ast.StripFinishes(prog)
	rep, err := repair.Repair(prog, repair.Options{
		Engine:  race.EngineBoth,
		Workers: workers,
	})
	if err != nil {
		t.Fatalf("repair (workers=%d): %v", workers, err)
	}
	out := repairOutcome{
		source:    printer.Print(prog),
		inserted:  rep.Inserted,
		dpStates:  rep.TotalDPStates(),
		degraded:  rep.Degraded,
		iterCount: len(rep.Iterations),
	}
	for _, it := range rep.Iterations {
		out.races = append(out.races, it.Races)
		out.nslcas = append(out.nslcas, it.NSLCAs)
	}
	return out
}

// TestRepairWorkersDeterministic repairs every benchmark program
// sequentially and with the parallel analysis pipeline (concurrent
// differential engines plus the per-NS-LCA DP worker pool) and requires
// byte-identical repaired source and identical per-iteration race and
// insertion statistics: worker count must never change the result.
func TestRepairWorkersDeterministic(t *testing.T) {
	workers := testWorkers(t)
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			src := b.Src(b.RepairSize)
			seq := repairWithWorkers(t, src, 1)
			par := repairWithWorkers(t, src, workers)
			if seq.source != par.source {
				t.Fatalf("repaired source differs between -j 1 and -j %d", workers)
			}
			if seq.inserted != par.inserted {
				t.Fatalf("insertions differ: -j 1 inserted %d, -j %d inserted %d", seq.inserted, workers, par.inserted)
			}
			if seq.iterCount != par.iterCount {
				t.Fatalf("iteration counts differ: %d vs %d", seq.iterCount, par.iterCount)
			}
			for i := range seq.races {
				if seq.races[i] != par.races[i] || seq.nslcas[i] != par.nslcas[i] {
					t.Fatalf("iteration %d differs: -j 1 (%d races, %d groups), -j %d (%d races, %d groups)",
						i, seq.races[i], seq.nslcas[i], workers, par.races[i], par.nslcas[i])
				}
			}
			if seq.dpStates != par.dpStates {
				t.Fatalf("DP states differ: %d vs %d", seq.dpStates, par.dpStates)
			}
			if seq.degraded || par.degraded {
				t.Fatalf("unexpected degraded placement without a budget")
			}
		})
	}
}

// TestRepairWorkersCancellation proves the parallel pipeline stays
// responsive to cancellation: a repair running with the full worker pool
// must return a typed error within 100ms of its context being canceled
// (the shared meter is checked from every concurrent replay and DP
// worker).
func TestRepairWorkersCancellation(t *testing.T) {
	b := bench.Get("Mergesort")
	prog, err := tdr.Load(b.Src(b.RepairSize))
	if err != nil {
		t.Fatal(err)
	}
	prog.StripFinishes()

	ctx, cancel := context.WithCancel(context.Background())
	var canceledAt time.Time
	go func() {
		time.Sleep(10 * time.Millisecond)
		canceledAt = time.Now()
		cancel()
	}()
	_, err = prog.RepairCtx(ctx, tdr.RepairOptions{
		Detector: tdr.MRW,
		Engine:   tdr.Both,
		Workers:  8,
	})
	returned := time.Now()
	if err == nil {
		t.Skip("repair finished before cancellation; nothing to measure")
	}
	if canceledAt.IsZero() {
		t.Fatalf("repair failed before cancellation: %v", err)
	}
	if lag := returned.Sub(canceledAt); lag > 100*time.Millisecond {
		t.Fatalf("cancellation lag %v exceeds 100ms", lag)
	}
}
