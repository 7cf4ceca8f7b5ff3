package trace_test

import (
	"fmt"
	"strings"
	"testing"

	"finishrepair/internal/bench"
	"finishrepair/internal/cpl"
	"finishrepair/internal/dpst"
	"finishrepair/internal/interp"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/lang/printer"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/progen"
	"finishrepair/internal/race"
	"finishrepair/internal/trace"
)

// describe renders every structural fact of the tree replay must
// reproduce: IDs, kinds, classes, labels, owner blocks, statement
// coordinates, and per-step work.
func describe(t *dpst.Tree) string {
	var sb strings.Builder
	var visit func(n *dpst.Node, depth int)
	visit = func(n *dpst.Node, depth int) {
		owner := -1
		if n.OwnerBlock != nil {
			owner = n.OwnerBlock.ID
		}
		fmt.Fprintf(&sb, "%*s%d %s %d %q b%d [%d,%d] w%d\n",
			depth*2, "", n.ID, n.Kind, n.Class, n.Label, owner, n.StmtLo, n.StmtHi, n.Work)
		for _, c := range n.Children {
			visit(c, depth+1)
		}
	}
	visit(t.Root, 0)
	return sb.String()
}

var fixtures = []struct {
	name string
	src  string
}{
	{"fib", `
func fib(ret []int, n int) {
    if (n < 2) { ret[0] = n; return; }
    var x = make([]int, 1);
    var y = make([]int, 1);
    async fib(x, n - 1);
    async fib(y, n - 2);
    ret[0] = x[0] + y[0];
}
func main() {
    var r = make([]int, 1);
    async fib(r, 8);
    println(r[0]);
}`},
	{"loops", `
var g = 0;
func main() {
    var a = make([]int, 8);
    for (var i = 0; i < 8; i = i + 1) {
        async { a[i] = i * i; }
        g = g + 1;
    }
    var j = 0;
    while (j < 4) {
        g = g + a[j];
        j = j + 1;
    }
    println(g);
}`},
	{"finish", `
var g = 0;
func main() {
    finish {
        async { g = 1; }
        async { g = 2; }
    }
    g = g + 1;
    if (g > 2) { println(g); } else { println(0); }
}`},
}

func capture(t *testing.T, src string, noCollapse bool) (*sem.Info, *interp.Result, *trace.Trace) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sem.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	res, err := interp.Run(info, interp.Options{
		Mode: interp.DepthFirst, Instrument: true,
		Trace: rec, NoCollapse: noCollapse,
	})
	if err != nil {
		t.Fatal(err)
	}
	return info, res, rec.Trace()
}

// buildTree runs the instrumented execution without a trace: the one
// run that still builds its S-DPST while executing.
func buildTree(t *testing.T, info *sem.Info, noCollapse bool) *interp.Result {
	t.Helper()
	res, err := interp.Run(info, interp.Options{
		Mode: interp.DepthFirst, Instrument: true, NoCollapse: noCollapse,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// reconstructCorpus is the fixtures, 20 generated programs, and the 12
// benchmarks at their repair size, both as written and stripped of
// finishes.
func reconstructCorpus() map[string]string {
	srcs := make(map[string]string)
	for _, f := range fixtures {
		srcs[f.name] = f.src
	}
	for seed := int64(7000); seed < 7020; seed++ {
		srcs[fmt.Sprintf("progen-%d", seed)] = progen.Gen(seed, progen.Default())
	}
	for _, b := range bench.All() {
		src := b.Src(b.RepairSize)
		srcs[b.Name] = src
		prog := parser.MustParse(src)
		ast.StripFinishes(prog)
		srcs[b.Name+"-stripped"] = printer.Print(prog)
	}
	return srcs
}

// Replay with no injected finishes must rebuild, node for node, the
// tree an untraced instrumented execution builds, under both collapse
// policies. The traced capture itself builds no tree.
func TestReplayReconstructsTree(t *testing.T) {
	for name, src := range reconstructCorpus() {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, noCollapse := range []bool{false, true} {
				info, res, tr := capture(t, src, noCollapse)
				if res.Tree != nil {
					t.Fatalf("noCollapse=%v: traced capture built a tree", noCollapse)
				}
				ref := buildTree(t, info, noCollapse)
				rr, err := trace.Replay(tr, trace.ReplayOptions{
					Prog: info.Prog, NoCollapse: noCollapse,
				})
				if err != nil {
					t.Fatalf("noCollapse=%v: replay: %v", noCollapse, err)
				}
				if want, got := describe(ref.Tree), describe(rr.Tree); want != got {
					t.Errorf("noCollapse=%v: replayed tree differs\n-- executed --\n%s\n-- replayed --\n%s",
						noCollapse, clip(want), clip(got))
				}
				if rr.Steps != ref.Steps || res.Steps != ref.Steps {
					t.Errorf("noCollapse=%v: steps: replay %d, capture %d, executed %d",
						noCollapse, rr.Steps, res.Steps, ref.Steps)
				}
				if res.Work != ref.Work || res.Output != ref.Output {
					t.Errorf("noCollapse=%v: capture work/output differ from the untraced run", noCollapse)
				}
			}
		})
	}
}

// clip shortens a tree dump for a failure message.
func clip(s string) string {
	if len(s) > 4000 {
		return s[:4000] + "..."
	}
	return s
}

// Work executed after a call scope ends mid-statement, before the next
// step boundary, is charged to no step. This pins the known gap on the
// two benchmarks that show it, so a fix (which moves spans and the
// repair goldens) is a deliberate change.
func TestUnchargedWorkGap(t *testing.T) {
	for _, c := range []struct {
		name string
		gap  int64
	}{{"Nqueens", 40}, {"Series", 246}} {
		b := bench.Get(c.name)
		info := sem.MustCheck(parser.MustParse(b.Src(b.RepairSize)))
		res := buildTree(t, info, false)
		var stepWork int64
		res.Tree.Walk(func(n *dpst.Node) {
			if n.Kind == dpst.Step {
				stepWork += n.Work
			}
		})
		if got := res.Work - stepWork; got != c.gap {
			t.Errorf("%s: run work %d - step work %d = %d, want %d", c.name, res.Work, stepWork, got, c.gap)
		}
	}
}

// raceProfile is the injection-equivalence identity: the multiset of
// (location, kind) pairs, which is invariant under renumbering of
// blocks and nodes between a rewritten source and an injected replay.
func raceProfile(races []*race.Race) string {
	counts := map[string]int{}
	for _, r := range races {
		counts[fmt.Sprintf("%d/%s", r.Loc, r.Kind)]++
	}
	var out []string
	for k, v := range counts {
		out = append(out, fmt.Sprintf("%s x%d", k, v))
	}
	sortStrings(out)
	return strings.Join(out, ", ")
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func analyze(t *testing.T, src string) (*sem.Info, []*race.Race, cpl.Metrics) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sem.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	res, det, err := race.Detect(info, race.VariantMRW, race.NewBagsOracle())
	if err != nil {
		t.Fatal(err)
	}
	return info, det.Races(), cpl.Analyze(res.Tree)
}

// Injected virtual finishes must be observationally equivalent to
// re-executing the source with real finish statements: same race
// profile, same work, same span, same finish count.
func TestVirtualFinishInjection(t *testing.T) {
	cases := []struct {
		name     string
		stripped string // capture source
		finished string // reference source with real finishes
		// ranges picks virtual scopes in the stripped program: fn name,
		// then Lo/Hi statement indices in that function's body block.
		ranges []struct {
			fn     string
			lo, hi int
		}
		// minEvents, when set, is a lower bound on the capture's length,
		// so the case is known to cross chunk seams.
		minEvents int
	}{
		{
			name: "wrap-asyncs",
			stripped: `
var g = 0;
func main() {
    async { g = 1; }
    async { g = 2; }
    g = 3;
    println(g);
}`,
			finished: `
var g = 0;
func main() {
    finish {
        async { g = 1; }
        async { g = 2; }
    }
    g = 3;
    println(g);
}`,
			ranges: []struct {
				fn     string
				lo, hi int
			}{{"main", 0, 1}},
		},
		{
			name: "nested",
			stripped: `
var g = 0;
var h = 0;
func main() {
    async { g = 1; }
    async { h = 1; }
    g = g + h;
    h = 2;
    println(g + h);
}`,
			finished: `
var g = 0;
var h = 0;
func main() {
    finish {
        finish {
            async { g = 1; }
        }
        async { h = 1; }
        g = g + h;
    }
    h = 2;
    println(g + h);
}`,
			ranges: []struct {
				fn     string
				lo, hi int
			}{{"main", 0, 2}, {"main", 0, 0}},
		},
		{
			// Every loop iteration records a task start/end pair plus
			// accesses, so the capture fills several 4096-event chunks
			// and the finish around the loop stays open across every
			// chunk seam: injection state must carry across them.
			name: "chunk-seams",
			stripped: `
var g = 0;
func main() {
    var a = make([]int, 8);
    for (var i = 0; i < 2000; i = i + 1) {
        async { a[0] = i; }
        g = g + 1;
    }
    println(g);
}`,
			finished: `
var g = 0;
func main() {
    var a = make([]int, 8);
    finish {
        for (var i = 0; i < 2000; i = i + 1) {
            async { a[0] = i; }
            g = g + 1;
        }
    }
    println(g);
}`,
			ranges: []struct {
				fn     string
				lo, hi int
			}{{"main", 1, 1}},
			minEvents: 2 * 4096,
		},
	}
	for _, c := range cases {
		// Reference: real finishes, re-executed.
		_, wantRaces, wantM := analyze(t, c.finished)

		// Capture the stripped program once; replay with injection.
		info, _, tr := capture(t, c.stripped, false)
		if tr.Len() < c.minEvents {
			t.Fatalf("%s: fixture too small to cross chunk seams: %d events, want >= %d", c.name, tr.Len(), c.minEvents)
		}
		var fins []trace.FinishRange
		for _, r := range c.ranges {
			blk := info.Prog.Func(r.fn).Body
			fins = append(fins, trace.FinishRange{BlockID: blk.ID, Lo: r.lo, Hi: r.hi})
		}
		det := race.New(race.VariantMRW, race.NewBagsOracle())
		rr, err := race.Analyze(tr, info.Prog, fins, det, nil, false)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		gotM := cpl.Analyze(rr.Tree)

		if got, want := raceProfile(det.Races()), raceProfile(wantRaces); got != want {
			t.Errorf("%s: races after injection = [%s], re-execution = [%s]", c.name, got, want)
		}
		if gotM.Work != wantM.Work || gotM.Span != wantM.Span {
			t.Errorf("%s: work/span after injection = %d/%d, re-execution = %d/%d",
				c.name, gotM.Work, gotM.Span, wantM.Work, wantM.Span)
		}
		finishes := 0
		rr.Tree.Walk(func(n *dpst.Node) {
			if n.Kind == dpst.Finish {
				finishes++
			}
		})
		if want := len(c.ranges) + 1; finishes != want { // +1 for the root
			t.Errorf("%s: %d finish nodes after injection, want %d", c.name, finishes, want)
		}
	}
}

// A virtual range covering statements that never execute (dead code
// after a return) must behave like a finish statement that never runs.
func TestVirtualFinishDeadCode(t *testing.T) {
	src := `
var g = 0;
func f() {
    g = 1;
    return;
    async { g = 2; }
}
func main() {
    f();
    println(g);
}`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sem.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	if _, err := interp.Run(info, interp.Options{
		Mode: interp.DepthFirst, Instrument: true, Trace: rec,
	}); err != nil {
		t.Fatal(err)
	}
	blk := info.Prog.Func("f").Body
	rr, err := trace.Replay(rec.Trace(), trace.ReplayOptions{
		Prog:     info.Prog,
		Finishes: []trace.FinishRange{{BlockID: blk.ID, Lo: 2, Hi: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rr.Tree.Walk(func(n *dpst.Node) {
		if n.Kind == dpst.Finish && n.Parent != nil {
			t.Errorf("dead-code range materialized finish node %d", n.ID)
		}
	})
}

// ast.StripFinishes must be the left inverse of injection on the event
// stream: capturing a finished program and capturing its stripped
// version yield the same accesses and work (finishes are free).
func TestFinishStatementsAreFreeInTrace(t *testing.T) {
	for _, f := range fixtures {
		_, res1, _ := capture(t, f.src, false)
		prog, _ := parser.Parse(f.src)
		ast.StripFinishes(prog)
		sinfo, err := sem.Check(prog)
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.NewRecorder()
		res2, err := interp.Run(sinfo, interp.Options{
			Mode: interp.DepthFirst, Instrument: true, Trace: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res1.Work != res2.Work {
			t.Errorf("%s: work %d with finishes, %d stripped", f.name, res1.Work, res2.Work)
		}
		if res1.Output != res2.Output {
			t.Errorf("%s: output changed after stripping", f.name)
		}
	}
}
