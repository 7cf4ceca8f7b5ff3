package repair_test

import (
	"errors"
	"testing"

	"finishrepair/internal/lang/parser"
	"finishrepair/internal/obs"
	"finishrepair/internal/repair"
)

// TestRepairTracerSpans checks that a traced repair emits well-formed
// spans covering every pipeline stage of paper Fig. 6, with the final
// detection round renamed "verify".
func TestRepairTracerSpans(t *testing.T) {
	tr := obs.New()
	prog := parser.MustParse(fibSrc)
	rep, err := repair.Repair(prog, repair.Options{UseTraceFiles: true, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if tr.OpenSpans() != 0 {
		t.Fatalf("%d spans left open", tr.OpenSpans())
	}
	recs := tr.Records()
	if err := obs.ValidateNesting(recs); err != nil {
		t.Fatalf("span nesting: %v", err)
	}
	count := map[string]int{}
	for _, r := range recs {
		count[r.Name]++
	}
	for _, phase := range []string{"repair", "iteration", "sem-check", "detect", "trace-io", "group-nslca", "dp-place", "rewrite", "verify"} {
		if count[phase] == 0 {
			t.Errorf("phase %q missing from trace; got %v", phase, count)
		}
	}
	if count["verify"] != 1 {
		t.Errorf("verify spans = %d, want exactly 1", count["verify"])
	}
	if count["iteration"] != len(rep.Iterations) {
		t.Errorf("iteration spans = %d, want %d", count["iteration"], len(rep.Iterations))
	}

	// The per-iteration report carries the breakdown the spans show.
	if rep.TotalDPStates() == 0 {
		t.Error("no DP states recorded")
	}
	for i, it := range rep.Iterations[:len(rep.Iterations)-1] {
		if it.PlaceTime == 0 && it.RewriteTime == 0 {
			t.Errorf("iteration %d: no phase durations recorded", i)
		}
	}
}

// TestRepairMaxIterationsError checks the typed exhaustion error and the
// partial report accompanying it.
func TestRepairMaxIterationsError(t *testing.T) {
	prog := parser.MustParse(fibSrc)
	rep, err := repair.Repair(prog, repair.Options{MaxIterations: 1})
	if err == nil {
		t.Fatal("repair within 1 iteration; fixture needs >= 2")
	}
	var mi *repair.MaxIterationsError
	if !errors.As(err, &mi) {
		t.Fatalf("error %T (%v), want *MaxIterationsError", err, err)
	}
	if mi.Iterations != 1 {
		t.Errorf("Iterations = %d, want 1", mi.Iterations)
	}
	if rep == nil || len(rep.Iterations) != 1 {
		t.Fatalf("partial report missing: %+v", rep)
	}
	if rep.Iterations[0].Races == 0 || mi.RemainingRaces == 0 {
		t.Errorf("exhausted repair lost race counts: iter=%+v err=%+v", rep.Iterations[0], mi)
	}
}

// TestTraceIOReportsTraceBytes checks that each trace-io span records
// the size of the race trace it round-tripped: nonzero on a racy round,
// and summing to Report.TraceBytes over the repair.
func TestTraceIOReportsTraceBytes(t *testing.T) {
	tr := obs.New()
	rep, err := repair.Repair(parser.MustParse(fibSrc), repair.Options{UseTraceFiles: true, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	var spans []int64
	for _, r := range tr.Records() {
		if r.Name != "trace-io" {
			continue
		}
		for _, a := range r.Attrs {
			if a.Key == "trace_bytes" {
				spans = append(spans, a.Int)
			}
		}
	}
	if len(spans) == 0 {
		t.Fatal("no trace-io span carries trace_bytes")
	}
	if rep.Iterations[0].Races == 0 || spans[0] <= 0 {
		t.Errorf("first round: %d races, trace_bytes = %d; want races and a positive size", rep.Iterations[0].Races, spans[0])
	}
	var sum int64
	for _, n := range spans {
		sum += n
	}
	if sum != int64(rep.TraceBytes) {
		t.Errorf("trace_bytes over the trace-io spans = %d, Report.TraceBytes = %d", sum, rep.TraceBytes)
	}
}
