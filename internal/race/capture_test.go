package race_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"finishrepair/internal/bench"
	"finishrepair/internal/dpst"
	"finishrepair/internal/guard"
	"finishrepair/internal/interp"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/race"
	"finishrepair/internal/trace"
)

// captureCorpus is the 12 benchmarks at their repair size, as written
// and stripped of finishes, plus the examples/hj programs.
func captureCorpus(t *testing.T) map[string]*sem.Info {
	t.Helper()
	infos := make(map[string]*sem.Info)
	for _, b := range bench.All() {
		src := b.Src(b.RepairSize)
		infos[b.Name] = sem.MustCheck(parser.MustParse(src))
		prog := parser.MustParse(src)
		ast.StripFinishes(prog)
		infos[b.Name+"-stripped"] = sem.MustCheck(prog)
	}
	paths, err := filepath.Glob("../../examples/hj/*.hj")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no examples found (%v)", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		infos[filepath.Base(p)] = sem.MustCheck(parser.MustParse(string(src)))
	}
	return infos
}

// captureWithBudget records a trace of info's canonical execution under
// an S-DPST node budget, in the phase race.Capture runs in.
func captureWithBudget(info *sem.Info, noCollapse bool, nodes int64) (*trace.Trace, error) {
	m := guard.NewMeter(nil, guard.Budget{MaxSDPSTNodes: nodes})
	m.SetPhase("trace-capture")
	rec := trace.NewRecorder()
	res, err := interp.Run(info, interp.Options{
		Mode: interp.DepthFirst, Instrument: true,
		Trace: rec, NoCollapse: noCollapse, Meter: m,
	})
	if err != nil {
		return nil, err
	}
	if res.Tree != nil {
		return nil, errors.New("traced capture built a tree")
	}
	return rec.Trace(), nil
}

// The capture builds no tree, yet it must charge the node budget
// exactly as replay builds nodes: with N the number of nodes the replay
// creates, a budget of N passes and a budget of N-1 trips at capture.
func TestCaptureNodeBudgetParity(t *testing.T) {
	for name, info := range captureCorpus(t) {
		name, info := name, info
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, noCollapse := range []bool{false, true} {
				tr, err := captureWithBudget(info, noCollapse, 0)
				if err != nil {
					t.Fatal(err)
				}
				rr, err := trace.Replay(tr, trace.ReplayOptions{Prog: info.Prog, NoCollapse: noCollapse})
				if err != nil {
					t.Fatal(err)
				}
				n := int64(rr.Tree.IDBound() - 1) // every node but the root
				if _, err := captureWithBudget(info, noCollapse, n); err != nil {
					t.Errorf("noCollapse=%v: budget %d (the replay's node count) tripped: %v", noCollapse, n, err)
				}
				_, err = captureWithBudget(info, noCollapse, n-1)
				var be *guard.BudgetExceededError
				if !errors.As(err, &be) || be.Resource != guard.ResourceSDPSTNodes || be.Phase != "trace-capture" {
					t.Errorf("noCollapse=%v: budget %d: got %v, want an S-DPST node budget error in trace-capture", noCollapse, n-1, err)
				}
			}
		})
	}
}

// race.Capture returns no tree: the replay is the only place the repair
// pipeline builds one.
func TestCaptureBuildsNoTree(t *testing.T) {
	info := sem.MustCheck(parser.MustParse(fibSrc))
	res, tr, err := race.Capture(info, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tree != nil {
		t.Error("race.Capture built a tree")
	}
	rr, err := race.Analyze(tr, info.Prog, nil, race.NewMRW(race.NewBagsOracle()), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Tree == nil || rr.Tree.IDBound() <= 1 || tr.Len() == 0 {
		t.Error("replay built no tree")
	}
}

// structureCounter counts the structure events a replay delivers.
type structureCounter struct {
	race.Detector
	tasks, finishes int
}

func (c *structureCounter) TaskStart(n *dpst.Node) {
	c.tasks++
	c.Detector.TaskStart(n)
}

func (c *structureCounter) FinishStart(n *dpst.Node) {
	c.finishes++
	c.Detector.FinishStart(n)
}

// ESP-Bags state is sized by tasks and finishes, not by tree nodes: two
// union-find elements per TaskStart or FinishStart.
func TestBagsSizedByStructure(t *testing.T) {
	b := bench.Get("Mandelbrot")
	prog := parser.MustParse(b.Src(b.RepairSize))
	ast.StripFinishes(prog)
	info := sem.MustCheck(prog)
	_, tr, err := race.Capture(info, nil)
	if err != nil {
		t.Fatal(err)
	}
	bags := race.NewBagsOracle()
	c := &structureCounter{Detector: race.NewMRW(bags)}
	rr, err := race.Analyze(tr, info.Prog, nil, c, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := race.BagsElements(bags), 2*(c.tasks+c.finishes); got != want {
		t.Errorf("union-find holds %d elements, want 2 x (%d tasks + %d finishes) = %d", got, c.tasks, c.finishes, want)
	}
	if nodes := rr.Tree.IDBound(); 2*(c.tasks+c.finishes) >= nodes {
		t.Errorf("%d tasks and finishes against %d nodes: the test no longer tells the two sizings apart", c.tasks+c.finishes, nodes)
	}
}
