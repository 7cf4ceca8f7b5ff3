// Package main_test holds the benchmark harness: one testing.B benchmark
// per table and figure of the paper's evaluation (§7), plus
// micro-benchmarks of the substrate components.
//
// Run with:
//
//	go test -bench=. -benchmem
//
// The Table/Figure benchmarks use the repair-mode inputs (Table 1,
// column 4); full-size Figure 16 numbers come from `hjbench -fig 16`.
package main_test

import (
	"fmt"
	"testing"

	"finishrepair/internal/bench"
	"finishrepair/internal/homework"
	"finishrepair/internal/interp"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/lexer"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/parinterp"
	"finishrepair/internal/race"
	"finishrepair/internal/repair"
	"finishrepair/taskpar"
)

// BenchmarkTable2_Detection measures race detection plus S-DPST
// construction per benchmark (Table 2, "Data Race Detection Time").
func BenchmarkTable2_Detection(b *testing.B) {
	for _, bm := range bench.All() {
		bm := bm
		b.Run(bm.Name, func(b *testing.B) {
			prog := parser.MustParse(bm.Src(bm.RepairSize))
			ast.StripFinishes(prog)
			info := sem.MustCheck(prog)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := race.Detect(info, race.VariantMRW, race.NewBagsOracle()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2_Repair measures the full repair loop per benchmark
// (Table 2, "Repair Time" plus detection rounds).
func BenchmarkTable2_Repair(b *testing.B) {
	for _, bm := range bench.All() {
		bm := bm
		b.Run(bm.Name, func(b *testing.B) {
			src := bm.Src(bm.RepairSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				prog := parser.MustParse(src)
				ast.StripFinishes(prog)
				b.StartTimer()
				if _, err := repair.Repair(prog, repair.Options{UseTraceFiles: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable3_SRWDetection is the SRW column of Table 3.
func BenchmarkTable3_SRWDetection(b *testing.B) {
	for _, bm := range bench.All() {
		bm := bm
		b.Run(bm.Name, func(b *testing.B) {
			prog := parser.MustParse(bm.Src(bm.RepairSize))
			ast.StripFinishes(prog)
			info := sem.MustCheck(prog)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := race.Detect(info, race.VariantSRW, race.NewBagsOracle()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig16 measures the three execution modes of Figure 16 on the
// repair-size inputs (the full performance inputs run via hjbench).
func BenchmarkFig16_Sequential(b *testing.B) {
	for _, bm := range bench.All() {
		bm := bm
		b.Run(bm.Name, func(b *testing.B) {
			prog := parser.MustParse(bm.Src(bm.RepairSize))
			ast.StripFinishes(prog)
			info := sem.MustCheck(prog)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := interp.Run(info, interp.Options{Mode: interp.Elide}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig16_OriginalParallel runs the expert-written parallel
// version on the work-stealing runtime.
func BenchmarkFig16_OriginalParallel(b *testing.B) {
	exec := taskpar.NewPoolExecutor(0)
	defer exec.Shutdown()
	for _, bm := range bench.All() {
		bm := bm
		b.Run(bm.Name, func(b *testing.B) {
			prog := parser.MustParse(bm.Src(bm.RepairSize))
			info := sem.MustCheck(prog)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := parinterp.Run(info, parinterp.Options{Executor: exec}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig16_RepairedParallel runs the tool-repaired version on the
// work-stealing runtime.
func BenchmarkFig16_RepairedParallel(b *testing.B) {
	exec := taskpar.NewPoolExecutor(0)
	defer exec.Shutdown()
	for _, bm := range bench.All() {
		bm := bm
		b.Run(bm.Name, func(b *testing.B) {
			src, err := bench.RepairedSource(bm, bm.RepairSize)
			if err != nil {
				b.Fatal(err)
			}
			prog := parser.MustParse(src)
			info := sem.MustCheck(prog)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := parinterp.Run(info, parinterp.Options{Executor: exec}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHomework grades one submission of each class (§7.4).
func BenchmarkHomeworkGrading(b *testing.B) {
	toolSpan, toolSrc, err := homework.ToolRepair()
	if err != nil {
		b.Fatal(err)
	}
	subs := homework.Submissions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sub := subs[i%len(subs)]
		if _, err := homework.Grade(sub, toolSpan, toolSrc); err != nil {
			b.Fatal(err)
		}
	}
}

// ----------------------------------------------------------------------
// Substrate micro-benchmarks (ablations).

// BenchmarkOracle compares the two ordering oracles that parameterize
// the detectors (ESP-Bags union-find vs Theorem-1 S-DPST queries) on the
// mergesort race workload — the design choice discussed in DESIGN.md.
func BenchmarkOracle(b *testing.B) {
	bm := bench.Get("Mergesort")
	src := bm.Src(300)
	oracles := map[string]func() race.Oracle{
		"ESPBags": func() race.Oracle { return race.NewBagsOracle() },
		"DPST":    func() race.Oracle { return race.NewDPSTOracle() },
	}
	for name, mk := range oracles {
		b.Run(name, func(b *testing.B) {
			prog := parser.MustParse(src)
			ast.StripFinishes(prog)
			info := sem.MustCheck(prog)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := race.Detect(info, race.VariantMRW, mk()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDPSolver measures Algorithm 1 on dependence graphs of
// increasing size (the O(n^3) dynamic program).
func BenchmarkDPSolver(b *testing.B) {
	for _, n := range []int{8, 32, 128, 512} {
		p := &repair.Problem{N: n, T: make([]int64, n), Async: make([]bool, n)}
		for i := 0; i < n; i++ {
			p.T[i] = int64(i%13 + 1)
			p.Async[i] = i%2 == 0
		}
		for i := 0; i+3 < n; i += 4 {
			p.Edges = append(p.Edges, [2]int{i, i + 3})
		}
		b.Run(benchName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := repair.Solve(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolveParallel measures the per-NS-LCA DP worker pool: a
// batch of independent placement problems solved sequentially vs on 4
// workers (repair rounds with many race groups take this path).
func BenchmarkSolveParallel(b *testing.B) {
	const n, batch = 128, 16
	mkProbs := func() []*repair.Problem {
		probs := make([]*repair.Problem, batch)
		for k := range probs {
			p := &repair.Problem{N: n, T: make([]int64, n), Async: make([]bool, n)}
			for i := 0; i < n; i++ {
				p.T[i] = int64((i+k)%13 + 1)
				p.Async[i] = i%2 == 0
			}
			for i := 0; i+3 < n; i += 4 {
				p.Edges = append(p.Edges, [2]int{i, i + 3})
			}
			probs[k] = p
		}
		return probs
	}
	for _, workers := range []int{1, 4} {
		workers := workers
		b.Run(fmt.Sprintf("j=%d", workers), func(b *testing.B) {
			probs := mkProbs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := repair.SolveAll(probs, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShadowEpoch measures the epoch-frontier MRW shadow memory on
// the Mergesort detection workload: "fresh" allocates a new detector
// per replay, "pooled" releases it back to the reuse pool between
// replays (the repair loop's analyze-many pattern).
func BenchmarkShadowEpoch(b *testing.B) {
	bm := bench.Get("Mergesort")
	prog := parser.MustParse(bm.Src(bm.RepairSize))
	ast.StripFinishes(prog)
	info := sem.MustCheck(prog)
	_, tr, err := race.Capture(info, nil)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, pooled bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			det := race.NewMRW(race.NewBagsOracle())
			if _, err := race.Analyze(tr, info.Prog, nil, det, nil, false); err != nil {
				b.Fatal(err)
			}
			if pooled {
				det.Release()
			}
		}
	}
	b.Run("fresh", func(b *testing.B) { run(b, false) })
	b.Run("pooled", func(b *testing.B) { run(b, true) })
}

func benchName(n int) string {
	switch n {
	case 8:
		return "n=8"
	case 32:
		return "n=32"
	case 128:
		return "n=128"
	default:
		return "n=512"
	}
}

// BenchmarkLexer and BenchmarkParser measure front-end throughput.
func BenchmarkLexer(b *testing.B) {
	src := bench.Get("Mergesort").Src(1000)
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		toks, errs := lexer.ScanAll(src)
		if len(errs) > 0 || len(toks) == 0 {
			b.Fatal("lex failed")
		}
	}
}

func BenchmarkParser(b *testing.B) {
	src := bench.Get("Mergesort").Src(1000)
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		if _, err := parser.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTaskpar measures the structured-concurrency runtime: spawn +
// join throughput in both executors.
func BenchmarkTaskparSpawnJoin(b *testing.B) {
	execs := map[string]*taskpar.Executor{
		"goroutines": taskpar.NewGoroutineExecutor(),
		"pool":       taskpar.NewPoolExecutor(0),
	}
	defer execs["pool"].Shutdown()
	for name, exec := range execs {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				exec.Finish(func(c *taskpar.Ctx) {
					for j := 0; j < 64; j++ {
						c.Async(func(*taskpar.Ctx) {})
					}
				})
			}
		})
	}
}
