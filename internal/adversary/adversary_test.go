package adversary

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"finishrepair/internal/bench"
	"finishrepair/internal/guard"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/lang/token"
)

func check(t *testing.T, src string) *sem.Info {
	t.Helper()
	prog := parser.MustParse(src)
	info, err := sem.Check(prog)
	if err != nil {
		t.Fatalf("sem.Check: %v", err)
	}
	return info
}

// counterSrc is the canonical lost-update program: two asyncs increment
// a shared counter inside one finish. Sequential output "2"; the
// defer-write schedule tears both read-modify-writes to produce "1".
const counterSrc = `
var count = 0;
func main() {
    finish {
        async { count = count + 1; }
        async { count = count + 1; }
    }
    println(count);
}
`

// repairedCounterSrc serializes the increments: race-free, so every
// schedule must agree with the oracle.
const repairedCounterSrc = `
var count = 0;
func main() {
    finish {
        finish { async { count = count + 1; } }
        async { count = count + 1; }
    }
    println(count);
}
`

// writeReadSrc is a W->R race: main reads the flag before the async's
// write is joined. Sequentially (depth-first) the async runs first and
// the read sees 1; deferring the write lets the read see 0.
const writeReadSrc = `
var flag = 0;
func main() {
    async { flag = 1; }
    println(flag);
}
`

func TestDepthFirstMatchesOracle(t *testing.T) {
	srcs := map[string]string{
		"counter":          counterSrc,
		"repaired-counter": repairedCounterSrc,
		"write-read":       writeReadSrc,
	}
	for _, b := range bench.All() {
		// Small inputs: controlled runs serialize every access.
		srcs["bench/"+b.Name] = b.Src(min(b.RepairSize, 12))
	}
	for name, src := range srcs {
		t.Run(name, func(t *testing.T) {
			info := check(t, src)
			oracle, err := Oracle(info, nil)
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			out, err := Run(info, Schedule{Policy: DepthFirst}, RunOptions{})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if div, reason := Diverges(oracle, out); div {
				t.Fatalf("depth-first controlled run diverges from oracle: %s\noracle output %q state %q\nrun output %q state %q err %v",
					reason, oracle.Output, oracle.State, out.Output, out.State, out.Err)
			}
		})
	}
}

func TestRandomScheduleDeterminism(t *testing.T) {
	info := check(t, counterSrc)
	for seed := int64(0); seed < 4; seed++ {
		a, err := Run(info, Schedule{Policy: RandomPriority, Seed: seed}, RunOptions{})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		b, err := Run(info, Schedule{Policy: RandomPriority, Seed: seed}, RunOptions{})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if a.Output != b.Output || a.State != b.State || a.Trace != b.Trace || a.Yields != b.Yields {
			t.Fatalf("seed %d not deterministic: (%q,%q,%x,%d) vs (%q,%q,%x,%d)",
				seed, a.Output, a.State, a.Trace, a.Yields, b.Output, b.State, b.Trace, b.Yields)
		}
	}
}

func TestCounterLostUpdateWitness(t *testing.T) {
	info := check(t, counterSrc)
	oracle, err := Oracle(info, nil)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if oracle.Output != "2\n" {
		t.Fatalf("oracle output = %q, want 2", oracle.Output)
	}
	// count is global slot 0 => loc 1.
	w, err := FindWitness(info, oracle, RaceTarget{Loc: 1, Kind: "W->W"}, SearchOptions{Seed: 1})
	if err != nil {
		t.Fatalf("FindWitness: %v", err)
	}
	if w == nil {
		t.Fatal("no witness found for the counter lost update")
	}
	if w.Schedule.Policy != DeferWrite {
		t.Errorf("witness schedule = %v, want the defer-write directed schedule", w.Schedule)
	}
	if w.Actual != "1\n" {
		t.Errorf("witness output = %q, want the lost update 1", w.Actual)
	}
	// Witness replays: the same schedule reproduces the same divergence.
	again, err := Run(info, w.Schedule, RunOptions{})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if again.Output != w.Actual || again.Trace != w.Trace {
		t.Errorf("replay differs: output %q trace %x, witness %q %x", again.Output, again.Trace, w.Actual, w.Trace)
	}
}

func TestWriteReadWitness(t *testing.T) {
	info := check(t, writeReadSrc)
	oracle, err := Oracle(info, nil)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	w, err := FindWitness(info, oracle, RaceTarget{Loc: 1, Kind: "W->R"}, SearchOptions{Seed: 1})
	if err != nil {
		t.Fatalf("FindWitness: %v", err)
	}
	if w == nil {
		t.Fatal("no witness found for the W->R race")
	}
	if w.Actual == oracle.Output {
		t.Errorf("witness output %q equals oracle output", w.Actual)
	}
}

func TestVerifyRaceFree(t *testing.T) {
	info := check(t, repairedCounterSrc)
	oracle, err := Oracle(info, nil)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	scheds := VerifySchedules([]uint64{1}, 16, 1)
	if len(scheds) != 16 {
		t.Fatalf("VerifySchedules built %d schedules, want 16", len(scheds))
	}
	rep, err := Verify(info, oracle, scheds, SearchOptions{})
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rep.Failures != 0 {
		t.Fatalf("race-free program failed %d/%d schedules; first: %+v", rep.Failures, len(rep.Schedules), rep.First)
	}
}

func TestVerifyCatchesRacyProgram(t *testing.T) {
	info := check(t, counterSrc)
	oracle, err := Oracle(info, nil)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	rep, err := Verify(info, oracle, VerifySchedules([]uint64{1}, 16, 1), SearchOptions{})
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rep.Failures == 0 {
		t.Fatal("adversarial verify passed a racy program")
	}
	if rep.First == nil {
		t.Fatal("no first divergence recorded")
	}
}

// verifyCase is one program of the parallel-verify tests with its
// K-schedule suite (race-directed on every global, then random).
type verifyCase struct {
	name   string
	info   *sem.Info
	scheds []Schedule
}

func verifyCases(t *testing.T) []verifyCase {
	t.Helper()
	b := bench.All()[0]
	srcs := []struct{ name, src string }{
		{"counter", counterSrc},
		{"repaired-counter", repairedCounterSrc},
		{"bench/" + b.Name, b.Src(min(b.RepairSize, 12))},
	}
	var cases []verifyCase
	for _, s := range srcs {
		info := check(t, s.src)
		var locs []uint64
		for i := 0; i < info.GlobalCount; i++ {
			locs = append(locs, uint64(1+i))
		}
		cases = append(cases, verifyCase{s.name, info, VerifySchedules(locs, 16, 1)})
	}
	return cases
}

// TestVerifyWorkersIdentical: the verify report is a pure function of
// the program and the schedules. Only the per-schedule wall time may
// differ between worker counts.
func TestVerifyWorkersIdentical(t *testing.T) {
	for _, c := range verifyCases(t) {
		t.Run(c.name, func(t *testing.T) {
			oracle, err := Oracle(c.info, nil)
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			var base *VerifyReport
			for _, workers := range []int{1, 2, 8} {
				rep, err := Verify(c.info, oracle, c.scheds, SearchOptions{Workers: workers})
				if err != nil {
					t.Fatalf("workers=%d: Verify: %v", workers, err)
				}
				if len(rep.Schedules) != len(c.scheds) {
					t.Fatalf("workers=%d: %d results for %d schedules", workers, len(rep.Schedules), len(c.scheds))
				}
				for i := range rep.Schedules {
					rep.Schedules[i].Ns = 0
				}
				if base == nil {
					base = rep
					continue
				}
				if !reflect.DeepEqual(rep, base) {
					t.Errorf("workers=%d: report differs from workers=1\n%+v\nvs\n%+v", workers, rep, base)
				}
			}
			if c.name == "counter" && base.First == nil {
				t.Error("racy counter: no first divergence recorded")
			}
		})
	}
}

// TestVerifyBudgetParallel: a budget trip or a cancellation aborts the
// search with its typed error at any worker count.
func TestVerifyBudgetParallel(t *testing.T) {
	c := verifyCases(t)[2]
	oracle, err := Oracle(c.info, nil)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 8} {
		m := guard.NewMeter(context.Background(), guard.Budget{OpLimit: 500})
		_, err := Verify(c.info, oracle, c.scheds, SearchOptions{Meter: m, Workers: workers})
		var bx *guard.BudgetExceededError
		if !errors.As(err, &bx) {
			t.Errorf("workers=%d: op limit: err = %v, want *guard.BudgetExceededError", workers, err)
		}
		m = guard.NewMeter(canceled, guard.Budget{})
		_, err = Verify(c.info, oracle, c.scheds, SearchOptions{Meter: m, Workers: workers})
		if !errors.Is(err, guard.ErrCanceled) {
			t.Errorf("workers=%d: canceled context: err = %v, want ErrCanceled", workers, err)
		}
	}
}

func TestSearchGapUnreachable(t *testing.T) {
	// The repaired form of examples/hj/unexercised.hj: the first writer
	// is fenced, the second is gated on a threshold this input never
	// reaches — its statement position must be schedule-unreachable.
	src := `
var x = 0;
var limit = 3;
func main() {
    finish { async { x = x + 1; } }
    if (limit > 10) {
        async { x = x + 2; }
    }
    println(x);
}
`
	prog := parser.MustParse(src)
	info, err := sem.Check(prog)
	if err != nil {
		t.Fatalf("sem.Check: %v", err)
	}
	// Find the positions of the two writer statements.
	var aPos, bPos token.Pos
	ast.Inspect(prog, func(s ast.Stmt) {
		if as, ok := s.(*ast.AssignStmt); ok {
			if as.Pos().Line == 5 {
				aPos = as.Pos()
			}
			if as.Pos().Line == 7 {
				bPos = as.Pos()
			}
		}
	})
	if aPos == (token.Pos{}) || bPos == (token.Pos{}) {
		t.Fatalf("did not locate writer statements (a=%v b=%v)", aPos, bPos)
	}
	oracle, err := Oracle(info, nil)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	res, err := SearchGap(info, oracle, GapTarget{APos: aPos, BPos: bPos}, SearchOptions{Seed: 1, RandomSchedules: 4})
	if err != nil {
		t.Fatalf("SearchGap: %v", err)
	}
	if res.Status != GapUnreachable {
		t.Fatalf("gap status = %q (reachedA=%v reachedB=%v), want unreachable", res.Status, res.ReachedA, res.ReachedB)
	}
	if !res.ReachedA || res.ReachedB {
		t.Errorf("reachability: a=%v b=%v, want a reached and b not", res.ReachedA, res.ReachedB)
	}
}

func TestYieldLimitTripsSchedule(t *testing.T) {
	src := `
var x = 0;
func main() {
    var i = 0;
    while (i < 100000) {
        x = x + 1;
        i = i + 1;
    }
}
`
	info := check(t, src)
	out, err := Run(info, Schedule{Policy: DepthFirst}, RunOptions{MaxYields: 100})
	if err != nil {
		t.Fatalf("yield-limit trip must be a schedule outcome, got search error %v", err)
	}
	var yl *YieldLimitError
	if out.Err == nil || !errors.As(out.Err, &yl) {
		t.Fatalf("outcome err = %v, want YieldLimitError", out.Err)
	}
}

func TestBudgetAbortsSearch(t *testing.T) {
	info := check(t, counterSrc)
	m := guard.NewMeter(context.Background(), guard.Budget{OpLimit: 5})
	_, err := Run(info, Schedule{Policy: DepthFirst}, RunOptions{Meter: m})
	if err == nil || !guard.IsBudgetOrCanceled(err) {
		t.Fatalf("err = %v, want a budget trip", err)
	}
}

// assignPosOnLine returns the position of the first assignment on line.
func assignPosOnLine(t *testing.T, prog *ast.Program, line int) token.Pos {
	t.Helper()
	var pos token.Pos
	ast.Inspect(prog, func(s ast.Stmt) {
		if as, ok := s.(*ast.AssignStmt); ok && as.Pos().Line == line && pos == (token.Pos{}) {
			pos = as.Pos()
		}
	})
	if pos == (token.Pos{}) {
		t.Fatalf("no assignment on line %d", line)
	}
	return pos
}

// TestSelfGrantDigestsPinned pins every scheduling decision of the
// controller: each schedule's grant digest, yield count and grant count
// below were captured from the controller that handed the token through
// the gate channel on every grant, self-grants included. Skipping the
// handoff when a yielding task is granted straight back must not change
// a single decision, so the table must hold unchanged.
func TestSelfGrantDigestsPinned(t *testing.T) {
	type pin struct {
		prog, sched    string
		trace          uint64
		yields, grants int64
	}
	want := []pin{
		{"counter", "depth-first", 0x66a56bf61ddc7626, 8, 11},
		{"counter", "defer-write@loc1", 0x8d2d122f65f21b26, 8, 12},
		{"counter", "defer-read@loc1", 0xdc6d216a2498d366, 8, 12},
		{"counter", "defer-pos@5:17", 0xee814ec5d8293366, 8, 12},
		{"counter", "random#0", 0x7dd4dfb08b424ae6, 8, 12},
		{"counter", "random#1", 0x118fd9d1b2644186, 8, 12},
		{"counter", "random#2", 0x3f5e3e3b01f69906, 8, 12},
		{"counter", "random#3", 0x9e8fc8cc597274c6, 8, 12},
		{"minmax.hj", "depth-first", 0xeac25717b59b796b, 88, 105},
		{"minmax.hj", "defer-write@loc2", 0x9584b9069fc1f7a3, 94, 112},
		{"minmax.hj", "defer-read@loc2", 0xaa39a8193b21a1ab, 88, 106},
		{"minmax.hj", "defer-pos@22:21", 0x9584b9069fc1f7a3, 94, 112},
		{"minmax.hj", "random#0", 0xb157917bbdf3282b, 88, 106},
		{"minmax.hj", "random#1", 0xaa0bba226c6eb54d, 90, 107},
		{"minmax.hj", "random#2", 0xee637669ae7b33cd, 89, 107},
		{"minmax.hj", "random#3", 0xeba7f00c3dbd6e2d, 89, 107},
		{"sumsq.hj", "depth-first", 0x7f41837d69dd640d, 74, 83},
		{"sumsq.hj", "defer-write@loc2", 0xa3b1a32cbe80592d, 74, 84},
		{"sumsq.hj", "defer-read@loc2", 0x11f26c0a67d61e2d, 74, 84},
		{"sumsq.hj", "defer-pos@18:17", 0x5ccd9029f6d6cead, 74, 84},
		{"sumsq.hj", "random#0", 0xba7079a2edbafecd, 74, 84},
		{"sumsq.hj", "random#1", 0x690949a6aeeb794d, 74, 84},
		{"sumsq.hj", "random#2", 0x6ae20f552359be0d, 74, 84},
		{"sumsq.hj", "random#3", 0x4dea000a8c20316d, 74, 84},
	}
	readExample := func(name string) string {
		src, err := os.ReadFile("../../examples/hj/" + name)
		if err != nil {
			t.Fatalf("read example: %v", err)
		}
		return string(src)
	}
	progs := []struct {
		name, src string
		loc       uint64 // racing location (global slot + 1)
		line      int    // line of the racing write
	}{
		{"counter", counterSrc, 1, 5},
		{"minmax.hj", readExample("minmax.hj"), 2, 22},
		{"sumsq.hj", readExample("sumsq.hj"), 2, 18},
	}
	var got []pin
	for _, p := range progs {
		prog := parser.MustParse(p.src)
		info, err := sem.Check(prog)
		if err != nil {
			t.Fatalf("%s: sem.Check: %v", p.name, err)
		}
		scheds := []Schedule{
			{Policy: DepthFirst},
			{Policy: DeferWrite, Loc: p.loc},
			{Policy: DeferRead, Loc: p.loc},
			{Policy: DeferPos, Pos: assignPosOnLine(t, prog, p.line)},
		}
		for seed := int64(0); seed < 4; seed++ {
			scheds = append(scheds, Schedule{Policy: RandomPriority, Seed: seed})
		}
		for _, s := range scheds {
			out, err := Run(info, s, RunOptions{})
			if err != nil {
				t.Fatalf("%s %s: %v", p.name, s, err)
			}
			got = append(got, pin{p.name, s.String(), out.Trace, out.Yields, out.Grants})
		}
	}
	if reflect.DeepEqual(got, want) {
		return
	}
	var b strings.Builder
	for _, g := range got {
		fmt.Fprintf(&b, "\t\t{%q, %q, 0x%016x, %d, %d},\n", g.prog, g.sched, g.trace, g.yields, g.grants)
	}
	t.Fatalf("controller decisions changed; got table:\n%s", b.String())
}
