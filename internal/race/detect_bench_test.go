package race_test

import (
	"runtime"
	"sort"
	"testing"
	"time"

	"finishrepair/internal/bench"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/race"
)

// BenchmarkDetectEngines splits detection into its capture-once /
// analyze-many halves and compares the pluggable engines: "capture" is
// the one instrumented execution that records the event-trace IR,
// "espbags" / "vc" are pure trace replays through each detector backend,
// "both" runs the test-only two-engine reference pair serially (the
// independent-engines gold standard), "fused" is the serial fused
// dual-oracle scan that -detector both -j 1 runs, and "both-j2" /
// "both-j4" run the fused engine with the requested analysis
// parallelism — one shadow scan cross-checking both oracles per
// ordering query, sharded by location hash when cores allow
// (race.AnalyzeParallel). Engines are released back to the
// shadow-memory reuse pool between iterations, as the repair loop does.
// Regenerate BENCH_detect.json with `make bench-detect`; gate
// regressions with `make bench-diff` (which also enforces both-jN <=
// both per benchmark).
func BenchmarkDetectEngines(b *testing.B) {
	release := func(eng race.Engine) {
		if r, ok := eng.(race.Releaser); ok {
			r.Release()
		}
	}
	// reportQuantiles attaches the per-iteration latency quantiles to
	// the result (p50-ns/op etc.); scripts/benchdiff gates on p95 so a
	// tail regression can't hide behind a stable mean.
	reportQuantiles := func(b *testing.B, durs []time.Duration) {
		if len(durs) == 0 {
			return
		}
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		q := func(p float64) float64 {
			return float64(durs[int(p*float64(len(durs)-1)+0.5)])
		}
		b.ReportMetric(q(0.50), "p50-ns/op")
		b.ReportMetric(q(0.95), "p95-ns/op")
		b.ReportMetric(q(0.99), "p99-ns/op")
	}
	for _, bm := range bench.All() {
		bm := bm
		prog := parser.MustParse(bm.Src(bm.RepairSize))
		ast.StripFinishes(prog)
		info := sem.MustCheck(prog)
		_, tr, err := race.Capture(info, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bm.Name+"/capture", func(b *testing.B) {
			b.ReportAllocs()
			runtime.GC() // pay the previous stage's GC debt outside the timer
			durs := make([]time.Duration, 0, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				if _, _, err := race.Capture(info, nil); err != nil {
					b.Fatal(err)
				}
				durs = append(durs, time.Since(t0))
			}
			b.ReportMetric(float64(tr.Len()), "events")
			reportQuantiles(b, durs)
		})
		for _, kind := range []race.EngineKind{race.EngineESPBags, race.EngineVC} {
			kind := kind
			b.Run(bm.Name+"/"+kind.String(), func(b *testing.B) {
				b.ReportAllocs()
				// Warm the detector pools so B/op reflects the
				// steady state, not one-time slab growth.
				eng := race.NewEngine(kind, race.VariantMRW)
				if _, err := race.Analyze(tr, info.Prog, nil, eng, nil, false); err != nil {
					b.Fatal(err)
				}
				release(eng)
				runtime.GC()
				durs := make([]time.Duration, 0, b.N)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					t0 := time.Now()
					eng := race.NewEngine(kind, race.VariantMRW)
					if _, err := race.Analyze(tr, info.Prog, nil, eng, nil, false); err != nil {
						b.Fatal(err)
					}
					release(eng)
					durs = append(durs, time.Since(t0))
				}
				reportQuantiles(b, durs)
			})
		}
		// both = the reference pair; fused and both-jN = the -detector
		// both engine under AnalyzeParallel with 1, 2 and 4 workers.
		type stage struct {
			name    string
			workers int
			mk      func() race.Engine
		}
		fused := func() race.Engine { return race.NewEngine(race.EngineBoth, race.VariantMRW) }
		stages := []stage{
			{"both", 1, func() race.Engine {
				return race.NewDifferential(race.NewEngine(race.EngineESPBags, race.VariantMRW), race.NewEngine(race.EngineVC, race.VariantMRW))
			}},
			{"fused", 1, fused},
			{"both-j2", 2, fused},
			{"both-j4", 4, fused},
		}
		for _, st := range stages {
			st := st
			b.Run(bm.Name+"/"+st.name, func(b *testing.B) {
				b.ReportAllocs()
				analyze := func() {
					eng := st.mk()
					if _, err := race.AnalyzeParallel(tr, info.Prog, nil, eng, nil, false, st.workers); err != nil {
						b.Fatal(err)
					}
					if err := eng.(interface{ Check() error }).Check(); err != nil {
						b.Fatal(err)
					}
					release(eng)
				}
				analyze()
				runtime.GC()
				durs := make([]time.Duration, 0, b.N)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					t0 := time.Now()
					analyze()
					durs = append(durs, time.Since(t0))
				}
				reportQuantiles(b, durs)
			})
		}
	}
}
