package race_test

import (
	"reflect"
	"runtime"
	"testing"

	"finishrepair/internal/bench"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/race"
)

// TestAnalyzeParallelMatchesSerial analyzes the same captured trace
// with the -detector both engine serially and through AnalyzeParallel
// with four workers, which shards the fused scan whenever more than one
// CPU is available, and requires the identical race stream, order
// included, with a clean cross-check on both sides.
func TestAnalyzeParallelMatchesSerial(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			prog, err := parser.Parse(b.Src(b.RepairSize))
			if err != nil {
				t.Fatal(err)
			}
			ast.StripFinishes(prog)
			info, err := sem.Check(prog)
			if err != nil {
				t.Fatal(err)
			}
			_, tr, err := race.Capture(info, nil)
			if err != nil {
				t.Fatal(err)
			}

			serial := race.NewEngine(race.EngineBoth, race.VariantMRW)
			if _, err := race.Analyze(tr, info.Prog, nil, serial, nil, false); err != nil {
				t.Fatal(err)
			}
			if err := serial.(*race.Fused).Check(); err != nil {
				t.Fatalf("serial cross-check: %v", err)
			}
			want := seqFingerprint(serial)

			par := race.NewEngine(race.EngineBoth, race.VariantMRW)
			if _, err := race.AnalyzeParallel(tr, info.Prog, nil, par, nil, false, 4); err != nil {
				t.Fatal(err)
			}
			f := par.(*race.Fused)
			if err := f.Check(); err != nil {
				t.Fatalf("parallel cross-check: %v", err)
			}
			if runtime.GOMAXPROCS(0) > 1 && race.ShardCells(f) == 0 {
				t.Fatal("AnalyzeParallel did not shard the fused scan")
			}
			if got := seqFingerprint(par); !reflect.DeepEqual(want, got) {
				t.Fatalf("race stream differs:\nserial   %v\nparallel %v", want, got)
			}
			serial.(*race.Fused).Release()
			f.Release()
		})
	}
}

// TestAnalyzeParallelFallsThrough checks that a single-oracle engine, or
// the fused -detector both engine with one worker, takes the serial
// path and still detects.
func TestAnalyzeParallelFallsThrough(t *testing.T) {
	b := bench.Get("Mergesort")
	prog, err := parser.Parse(b.Src(b.RepairSize))
	if err != nil {
		t.Fatal(err)
	}
	ast.StripFinishes(prog)
	info, err := sem.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	_, tr, err := race.Capture(info, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, mk := range map[string]func() race.Engine{
		"single-engine": func() race.Engine { return race.NewEngine(race.EngineESPBags, race.VariantMRW) },
		"workers-1":     func() race.Engine { return race.NewEngine(race.EngineBoth, race.VariantMRW) },
	} {
		workers := 4
		if name == "workers-1" {
			workers = 1
		}
		eng := mk()
		if _, err := race.AnalyzeParallel(tr, info.Prog, nil, eng, nil, false, workers); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(eng.Races()) == 0 {
			t.Fatalf("%s: expected races on stripped Mergesort", name)
		}
		if f, ok := eng.(*race.Fused); ok && race.ShardCells(f) != 0 {
			t.Fatalf("%s: one worker must not shard the scan", name)
		}
	}
}
