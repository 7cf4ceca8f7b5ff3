package tdr_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"finishrepair/internal/faults"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/repair"
	"finishrepair/tdr"
)

// longRacy is a racy program whose detection run takes long enough (a
// few hundred million work units) that cancellation must interrupt it
// mid-iteration rather than winning by luck.
const longRacy = `
var g = 0;

func main() {
    async {
        for (var i = 0; i < 1000000000; i = i + 1) {
            g = g + 1;
        }
    }
    g = 1;
}
`

// longQuiet is race-free (the loop only touches an async-local
// variable) but long-running: safe to execute on the real parallel
// interpreter under the Go race detector while testing cancellation.
const longQuiet = `
func main() {
    async {
        var s = 0;
        for (var i = 0; i < 1000000000; i = i + 1) {
            s = s + 1;
        }
        println(s);
    }
}
`

// shortRacy races across three asyncs; repairs in well under a second.
const shortRacy = `
var g = 0;

func main() {
    async { g = 1; }
    async { g = 2; }
    g = 3;
    println(g);
}
`

func TestRepairCtxCancelAbortsPromptly(t *testing.T) {
	p, err := tdr.Load(longRacy)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = p.RepairCtx(ctx, tdr.RepairOptions{})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("expected cancellation error, repair finished")
	}
	if !errors.Is(err, tdr.ErrCanceled) {
		t.Fatalf("expected ErrCanceled, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation must also unwrap to context.Canceled, got %v", err)
	}
	// Acceptance bound is 100ms after cancel; allow scheduling slack on
	// top of the 10ms cancel delay.
	if elapsed > 110*time.Millisecond {
		t.Fatalf("repair took %v to honor cancellation (want < 110ms)", elapsed)
	}
}

func TestRepairCtxTimeoutIsBudgetError(t *testing.T) {
	p, err := tdr.Load(longRacy)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.RepairCtx(context.Background(), tdr.RepairOptions{
		Budget: tdr.Budget{Timeout: 20 * time.Millisecond},
	})
	if err == nil {
		t.Fatal("expected deadline error, repair finished")
	}
	var be *tdr.BudgetExceededError
	if !errors.As(err, &be) {
		t.Fatalf("expected BudgetExceededError, got %T: %v", err, err)
	}
	if be.Resource != tdr.ResourceDeadline {
		t.Fatalf("expected deadline resource, got %s", be.Resource)
	}
	if errors.Is(err, tdr.ErrCanceled) {
		t.Fatalf("a deadline trip must not read as user cancellation: %v", err)
	}
}

func TestRepairCtxOpBudgetTrips(t *testing.T) {
	p, err := tdr.Load(longRacy)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.RepairCtx(context.Background(), tdr.RepairOptions{
		Budget: tdr.Budget{OpLimit: 100_000},
	})
	var be *tdr.BudgetExceededError
	if !errors.As(err, &be) || be.Resource != tdr.ResourceOps {
		t.Fatalf("expected op-budget trip, got %v", err)
	}
	if !tdr.IsBudgetOrCanceled(err) {
		t.Fatalf("IsBudgetOrCanceled must be true for %v", err)
	}
}

// TestRepairDegradesOnDPStateBudget is the graceful-degradation
// acceptance test: with MaxDPStates=1 the DP trips immediately, the
// repair must fall back to the coarse placement, mark the report
// Degraded, and the result must still match the serial elision and
// re-detect race-free.
func TestRepairDegradesOnDPStateBudget(t *testing.T) {
	p, err := tdr.Load(shortRacy)
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.RunSequential()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.RepairCtx(context.Background(), tdr.RepairOptions{
		Budget: tdr.Budget{MaxDPStates: 1},
	})
	if err != nil {
		t.Fatalf("degraded repair must still succeed, got %v", err)
	}
	if !rep.Degraded {
		t.Fatal("report must be marked Degraded when the DP-state budget trips")
	}
	if !strings.Contains(rep.DegradedReason, "dp-states") {
		t.Fatalf("DegradedReason should name the tripped resource, got %q", rep.DegradedReason)
	}
	if rep.Output != want {
		t.Fatalf("degraded repair output %q != serial elision %q", rep.Output, want)
	}
	// The repaired program must re-detect race-free.
	rr, err := p.Detect(tdr.MRW)
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Races) != 0 {
		t.Fatalf("degraded repair left %d race(s)", len(rr.Races))
	}
}

func TestRepairUndegradedMatchesReference(t *testing.T) {
	p, err := tdr.Load(shortRacy)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Repair(tdr.RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded {
		t.Fatalf("unlimited budget must not degrade: %s", rep.DegradedReason)
	}
}

func TestDetectCtxSDPSTNodeBudget(t *testing.T) {
	p, err := tdr.Load(shortRacy)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.DetectCtx(context.Background(), tdr.MRW, tdr.Budget{MaxSDPSTNodes: 2})
	var be *tdr.BudgetExceededError
	if !errors.As(err, &be) || be.Resource != tdr.ResourceSDPSTNodes {
		t.Fatalf("expected S-DPST node budget trip, got %v", err)
	}
}

func TestRunParallelCtxCancel(t *testing.T) {
	p, err := tdr.Load(longQuiet)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = p.RunParallelCtx(ctx, 2, tdr.Budget{})
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if !errors.Is(err, tdr.ErrCanceled) {
		t.Fatalf("expected ErrCanceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
		t.Fatalf("parallel run took %v to honor cancellation", elapsed)
	}
}

func TestRunSequentialCtxTimeout(t *testing.T) {
	p, err := tdr.Load(longRacy)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.RunSequentialCtx(context.Background(), tdr.Budget{Timeout: 15 * time.Millisecond})
	var be *tdr.BudgetExceededError
	if !errors.As(err, &be) || be.Resource != tdr.ResourceDeadline {
		t.Fatalf("expected deadline trip, got %v", err)
	}
}

// TestInjectionPointsSurfaceTypedErrors sweeps every registered fault
// point: an armed error must surface as an ordinary error from the
// corresponding entry point, and an armed panic must surface as an
// *InternalError carrying a phase — never as a process panic.
func TestInjectionPointsSurfaceTypedErrors(t *testing.T) {
	boom := errors.New("boom")
	// drive exercises the pipeline stage that hits the given point.
	drive := func(pt string) error {
		p, err := tdr.Load(shortRacy)
		if err != nil {
			return err
		}
		switch pt {
		case faults.SequentialRun:
			_, err = p.RunSequential()
		case faults.ParallelRun:
			_, err = p.RunParallelCtx(context.Background(), 2, tdr.Budget{})
		case faults.TraceIO:
			// No tdr entry point sets UseTraceFiles, so the point is
			// reached through the repair loop directly while that code
			// path exists.
			_, err = repair.Repair(parser.MustParse(shortRacy), repair.Options{UseTraceFiles: true})
		default:
			_, err = p.Repair(tdr.RepairOptions{})
		}
		return err
	}
	for _, pt := range faults.Points() {
		pt := pt
		t.Run("error/"+pt, func(t *testing.T) {
			faults.Reset()
			defer faults.Reset()
			faults.ArmError(pt, 1, boom)
			err := drive(pt)
			if err == nil {
				t.Fatalf("injected error at %s did not surface", pt)
			}
			if !errors.Is(err, boom) {
				t.Fatalf("injected error at %s surfaced as %v, want wrap of boom", pt, err)
			}
			if hits := faults.Hits(pt); hits == 0 {
				t.Fatalf("fault point %s never hit", pt)
			}
		})
		t.Run("panic/"+pt, func(t *testing.T) {
			faults.Reset()
			defer faults.Reset()
			faults.ArmPanic(pt, 1, "injected panic at "+pt)
			err := drive(pt)
			if err == nil {
				t.Fatalf("injected panic at %s did not surface", pt)
			}
			var ie *tdr.InternalError
			if !errors.As(err, &ie) {
				t.Fatalf("injected panic at %s surfaced as %T (%v), want InternalError", pt, err, err)
			}
			if ie.Phase == "" {
				t.Fatalf("InternalError from %s has no phase", pt)
			}
			if ie.Stack == "" {
				t.Fatalf("InternalError from %s has no stack", pt)
			}
		})
	}
}
