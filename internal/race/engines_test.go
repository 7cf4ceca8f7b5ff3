package race_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"finishrepair/internal/bench"
	"finishrepair/internal/guard"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/progen"
	"finishrepair/internal/race"
)

// fuzzCorpusSeeds decodes the checked-in Go fuzz corpus: each file is
// "go test fuzz v1" followed by one string(...) literal.
func fuzzCorpusSeeds(t *testing.T) map[string]string {
	t.Helper()
	dir := filepath.Join("..", "..", "tdr", "testdata", "fuzz", "FuzzRepairRoundTrip")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("fuzz corpus: %v", err)
	}
	seeds := map[string]string{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if !strings.HasPrefix(line, "string(") || !strings.HasSuffix(line, ")") {
				continue
			}
			src, err := strconv.Unquote(line[len("string(") : len(line)-1])
			if err != nil {
				t.Fatalf("%s: %v", e.Name(), err)
			}
			seeds[e.Name()] = src
		}
	}
	if len(seeds) == 0 {
		t.Fatal("no fuzz corpus seeds decoded")
	}
	return seeds
}

// checkEnginesAgree captures src once and analyzes the trace under both
// variants and both collapse policies with two engines: the test-only
// independent pair (complete ESP-Bags and vector-clock detectors whose
// race sets are compared afterwards) and the production fused engine
// that -detector both builds. The pair must agree, the fused engine's
// per-query cross-check must be clean, and its race stream, order
// included, must equal the pair's. Programs that exceed the op budget
// (e.g. corpus seeds with infinite loops) or fail semantic checks are
// skipped. Finishes are stripped unless keepFinishes is set, which
// brings FinishStart events (and their oracle ordinals) into the trace.
func checkEnginesAgree(t *testing.T, name, src string, keepFinishes bool) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		return
	}
	if !keepFinishes {
		ast.StripFinishes(prog)
	}
	info, err := sem.Check(prog)
	if err != nil {
		return
	}
	m := guard.NewMeter(context.Background(), guard.Budget{OpLimit: 2_000_000})
	_, tr, err := race.Capture(info, m)
	if err != nil {
		t.Logf("%s: capture skipped: %v", name, err)
		return
	}
	for _, v := range []race.Variant{race.VariantSRW, race.VariantMRW} {
		for _, noCollapse := range []bool{false, true} {
			ref := race.NewDifferential(race.NewEngine(race.EngineESPBags, v), race.NewEngine(race.EngineVC, v))
			if _, err := race.Analyze(tr, info.Prog, nil, ref, nil, noCollapse); err != nil {
				t.Fatalf("%s (%s, noCollapse=%v): %v", name, v, noCollapse, err)
			}
			if err := ref.Check(); err != nil {
				t.Errorf("%s (%s, noCollapse=%v): %v", name, v, noCollapse, err)
			}
			fused := race.NewEngine(race.EngineBoth, v).(*race.Fused)
			if _, err := race.Analyze(tr, info.Prog, nil, fused, nil, noCollapse); err != nil {
				t.Fatalf("%s (%s, noCollapse=%v): fused: %v", name, v, noCollapse, err)
			}
			if err := fused.Check(); err != nil {
				t.Errorf("%s (%s, noCollapse=%v): fused cross-check: %v", name, v, noCollapse, err)
			}
			if want, got := seqFingerprint(ref), seqFingerprint(fused); !reflect.DeepEqual(want, got) {
				t.Errorf("%s (%s, noCollapse=%v): race streams differ:\nreference %v\nfused     %v", name, v, noCollapse, want, got)
			}
			fused.Release()
			ref.Release()
		}
	}
}

// TestEnginesAgreeOnBenchPrograms is the differential property over the
// paper's benchmark suite: for every program, ESP-Bags and the
// vector-clock detector must report identical race sets — same
// variables, same access pairs, same NS-LCA groups — and the fused
// engine must report exactly the same race stream. Each program runs
// stripped and as written.
func TestEnginesAgreeOnBenchPrograms(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			checkEnginesAgree(t, b.Name, b.Src(b.RepairSize), false)
			checkEnginesAgree(t, b.Name+" (as written)", b.Src(b.RepairSize), true)
		})
	}
}

// TestEnginesAgreeOnFuzzCorpus runs the same property over every seed
// of the checked-in repair fuzz corpus.
func TestEnginesAgreeOnFuzzCorpus(t *testing.T) {
	for name, src := range fuzzCorpusSeeds(t) {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			checkEnginesAgree(t, name, src, false)
		})
	}
}

// TestEnginesAgreeOnGeneratedPrograms fuzzes the property further with
// deterministic generated programs.
func TestEnginesAgreeOnGeneratedPrograms(t *testing.T) {
	for seed := int64(5000); seed < 5040; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			checkEnginesAgree(t, fmt.Sprintf("progen-%d", seed), progen.Gen(seed, progen.Default()), false)
		})
	}
}
