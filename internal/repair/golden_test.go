package repair_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"finishrepair/internal/bench"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/lang/printer"
	"finishrepair/internal/obs/provenance"
	"finishrepair/internal/race"
	"finishrepair/internal/repair"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current repair outputs")

// goldenCase is one pinned repair: a program, the detector variant and
// the repair strategy.
type goldenCase struct {
	name     string // golden file stem
	src      string
	strip    bool // strip the program's finishes before repairing
	variant  race.Variant
	strategy repair.Strategy
}

// goldenCases lists every pinned repair: the 12 benchmarks at their
// repair size × {MRW, SRW} × {finish, auto}, and the bundled example
// programs × {finish, auto} under MRW. Benchmarks and the testdata
// programs are repaired with their finishes stripped, as the paper's
// evaluation does; the examples are repaired as written, as hjrepair
// runs them.
func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	strategies := []repair.Strategy{repair.StrategyFinish, repair.StrategyAuto}
	var cases []goldenCase
	for _, b := range bench.All() {
		stem := strings.ReplaceAll(b.Name, " ", "_")
		for _, v := range []race.Variant{race.VariantMRW, race.VariantSRW} {
			for _, s := range strategies {
				cases = append(cases, goldenCase{
					name: fmt.Sprintf("bench-%s.%s.%s", stem, strings.ToLower(v.String()), s),
					src:  b.Src(b.RepairSize), strip: true, variant: v, strategy: s,
				})
			}
		}
	}
	examples, err := filepath.Glob("../../examples/hj/*.hj")
	if err != nil || len(examples) == 0 {
		t.Fatalf("examples: %v (%d found)", err, len(examples))
	}
	files := map[string]bool{}
	for _, f := range examples {
		files[f] = false
	}
	files["../../testdata/buggy_fib.hj"] = true
	files["../../testdata/quicksort.hj"] = true
	for f, strip := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		dir := "testdata"
		if !strip {
			dir = "examples"
		}
		stem := strings.TrimSuffix(filepath.Base(f), ".hj")
		for _, s := range strategies {
			cases = append(cases, goldenCase{
				name: fmt.Sprintf("%s-%s.mrw.%s", dir, stem, s),
				src:  string(src), strip: strip, variant: race.VariantMRW, strategy: s,
			})
		}
	}
	return cases
}

// renderGolden repairs the case and renders the golden text: a digest, the program output and the
// repaired source. The digest holds, per iteration, the race and S-DPST
// node counts and, per NS-LCA group, the chosen strategy; then the
// inserted finish/isolated set read off the repaired AST, and the
// final critical path. A repair that does not converge records its
// error in place of the final critical path.
func renderGolden(t *testing.T, c goldenCase) string {
	t.Helper()
	prog, err := parser.Parse(c.src)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	if c.strip {
		ast.StripFinishes(prog)
	}
	ex := &provenance.Explain{}
	rep, rerr := repair.Repair(prog, repair.Options{
		Variant:       c.variant,
		Strategy:      c.strategy,
		UseTraceFiles: true,
		Explain:       ex,
	})
	if rep == nil {
		t.Fatalf("%s: no report: %v", c.name, rerr)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "# %s: %s detector, %s strategy\n", c.name, c.variant, c.strategy)
	b.WriteString("== digest ==\n")
	for i, it := range rep.Iterations {
		fmt.Fprintf(&b, "iteration %d: races=%d sdpst_nodes=%d\n", i, it.Races, it.SDPSTNodes)
		if i >= len(ex.Iterations) {
			continue
		}
		// Runs of identical group lines (recursive benchmarks repeat one
		// static NS-LCA many times) are written once with a count.
		var prev string
		run := 0
		flush := func() {
			if run > 1 {
				fmt.Fprintf(&b, "%s (x%d)\n", prev, run)
			} else if run == 1 {
				fmt.Fprintln(&b, prev)
			}
		}
		for _, g := range ex.Iterations[i].Groups {
			strategy := g.Strategy
			if strategy == "" {
				strategy = "finish"
			}
			line := fmt.Sprintf("  group %s@%s races=%d strategy=%s applied=%v",
				g.LCA.Kind, g.LCA.Pos, len(g.Races), strategy, g.Applied)
			if line != prev {
				flush()
				prev, run = line, 0
			}
			run++
		}
		flush()
	}
	b.WriteString("inserted:\n")
	ast.Inspect(prog, func(s ast.Stmt) {
		switch s := s.(type) {
		case *ast.FinishStmt:
			if s.Synthesized {
				fmt.Fprintf(&b, "  finish %s (%d stmts)\n", s.Pos(), len(s.Body.Stmts))
			}
		case *ast.IsolatedStmt:
			if s.Synthesized {
				fmt.Fprintf(&b, "  isolated %s (%d stmts, class %d)\n", s.Pos(), len(s.Body.Stmts), s.LockClass)
			}
		}
	})
	switch {
	case rerr != nil:
		fmt.Fprintf(&b, "error: %v\n", rerr)
	case len(ex.Iterations) > 0 && ex.Iterations[len(ex.Iterations)-1].CPL != nil:
		c := ex.Iterations[len(ex.Iterations)-1].CPL
		fmt.Fprintf(&b, "cpl: work=%d span=%d\n", c.Work, c.Span)
	}
	b.WriteString("== output ==\n")
	b.WriteString(rep.Output)
	b.WriteString("== repaired source ==\n")
	b.WriteString(printer.Print(prog))
	return b.String()
}

func goldenPath(c goldenCase) string {
	return filepath.Join("testdata", "golden", c.name+".golden")
}

// TestRepairGoldens pins every repair output — repaired source, program
// output and the per-iteration digest — in testdata/golden. Run with
// -update to rewrite the files after an intended output change, and
// review the diff.
func TestRepairGoldens(t *testing.T) {
	cases := goldenCases(t)
	if *update {
		if err := os.MkdirAll(filepath.Join("testdata", "golden"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			got := renderGolden(t, c)
			path := goldenPath(c)
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if got != string(want) {
				t.Errorf("%s differs from the golden:\n%s", path, lineDiff(string(want), got))
			}
		})
	}
}

// lineDiff reports the first differing line of two texts, with its
// line number, for a readable golden failure.
func lineDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i+1, w, g)
		}
	}
	return "(no line differs)"
}
