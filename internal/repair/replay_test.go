package repair_test

import (
	"fmt"
	"testing"

	"finishrepair/internal/lang/parser"
	"finishrepair/internal/obs"
	"finishrepair/internal/race"
	"finishrepair/internal/repair"
)

// TestRepairCapturesOnceReplaysRest pins the capture-once/analyze-many
// contract: a multi-iteration repair executes the instrumented program
// exactly once (one trace-capture span), and every later detection
// round replays the trace instead (one trace-replay span per iteration
// after the first). Every round runs the same path at every worker
// count and engine, so the contract holds at -j 2 and under the fused
// engine's sharded scan as well.
func TestRepairCapturesOnceReplaysRest(t *testing.T) {
	// EngineESPBags is the zero value, the default engine.
	for _, engine := range []race.EngineKind{race.EngineESPBags, race.EngineBoth} {
		for _, workers := range []int{1, 2} {
			engine, workers := engine, workers
			name := race.NewEngine(engine, race.VariantMRW).Name()
			t.Run(fmt.Sprintf("%s/j%d", name, workers), func(t *testing.T) {
				tr := obs.New()
				prog := parser.MustParse(fibSrc)
				rep, err := repair.Repair(prog, repair.Options{Tracer: tr, Engine: engine, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Iterations) < 2 {
					t.Fatalf("fixture repaired in %d iteration(s); need >= 2 to exercise replay", len(rep.Iterations))
				}
				count := map[string]int{}
				for _, r := range tr.Records() {
					count[r.Name]++
				}
				if count["trace-capture"] != 1 {
					t.Errorf("trace-capture spans = %d, want exactly 1 (program must execute once)", count["trace-capture"])
				}
				if want := len(rep.Iterations) - 1; count["trace-replay"] != want {
					t.Errorf("trace-replay spans = %d, want %d (one per iteration after the first)", count["trace-replay"], want)
				}
				if span := "detect/" + name; count[span] != len(rep.Iterations) {
					t.Errorf("%s spans = %d, want %d (one analysis per iteration)", span, count[span], len(rep.Iterations))
				}
			})
		}
	}
}
