package repair_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"finishrepair/internal/bench"
	"finishrepair/internal/guard"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/progen"
	"finishrepair/internal/race"
	"finishrepair/internal/repair"
)

// sameError reports whether two Solve errors are interchangeable: both
// nil, both unsatisfiable at the same cell, or both the same budget trip.
func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	var ua, ub *repair.UnsatisfiableError
	if errors.As(a, &ua) && errors.As(b, &ub) {
		return *ua == *ub
	}
	var ba, bb *guard.BudgetExceededError
	if errors.As(a, &ba) && errors.As(b, &bb) {
		return ba.Resource == bb.Resource && ba.Limit == bb.Limit && ba.Used == bb.Used
	}
	return false
}

// checkAgainstReference solves p with Solve and the reference DP and
// requires the same Cost, FinishSet and States, or the same error, which
// it returns. It also requires Solve to evaluate VALID at most once per
// block.
func checkAgainstReference(t *testing.T, label string, p *repair.Problem) error {
	t.Helper()
	q := *p
	calls := make(map[[2]int]int)
	if p.Valid != nil {
		q.Valid = func(s, e int) bool {
			calls[[2]int{s, e}]++
			return p.Valid(s, e)
		}
	}
	got, gerr := repair.Solve(&q)
	want, werr := repair.SolveReference(p)
	if !sameError(gerr, werr) {
		t.Fatalf("%s: Solve error %v, reference error %v", label, gerr, werr)
	}
	if werr == nil && (got.Cost != want.Cost || got.States != want.States || !slices.Equal(got.Finishes, want.Finishes)) {
		t.Fatalf("%s: Solve = {cost %d, states %d, finishes %v}, reference = {cost %d, states %d, finishes %v}",
			label, got.Cost, got.States, got.Finishes, want.Cost, want.States, want.Finishes)
	}
	for b, c := range calls {
		if c > 1 {
			t.Fatalf("%s: VALID(%d, %d) evaluated %d times", label, b[0], b[1], c)
		}
	}
	return werr
}

// roundProblems repairs the finish-stripped src with the CLI's default
// strategy and returns the placement problem of every NS-LCA group of
// every repair round.
func roundProblems(t testing.TB, name, src string) []*repair.Problem {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	ast.StripFinishes(prog)
	var probs []*repair.Problem
	var gerr error
	opts := repair.Options{
		Strategy: repair.StrategyAuto,
		OnRaces: func(races []*race.Race) {
			ps, err := repair.GroupProblems(races)
			probs = append(probs, ps...)
			gerr = errors.Join(gerr, err)
		},
	}
	if _, err := repair.Repair(prog, opts); err != nil {
		t.Fatalf("%s repair: %v", name, err)
	}
	if gerr != nil {
		t.Fatalf("%s grouping: %v", name, gerr)
	}
	return probs
}

// largestLUFactGroup is the biggest placement problem of the stripped
// LUFact repair: the single NS-LCA group that dominates its DP states.
func largestLUFactGroup(t testing.TB) *repair.Problem {
	t.Helper()
	b := bench.Get("LUFact")
	var big *repair.Problem
	for _, p := range roundProblems(t, b.Name, b.Src(b.RepairSize)) {
		if big == nil || p.N > big.N {
			big = p
		}
	}
	if big == nil {
		t.Fatal("LUFact repair solved no placement problem")
	}
	return big
}

// randomProblem draws a DAG over up to 40 vertices with a VALID
// predicate that accepts each block with probability pValid. The
// predicate is a fixed table, so it is a pure function of (s, e).
func randomProblem(rng *rand.Rand, pValid float64) *repair.Problem {
	n := rng.Intn(41)
	p := &repair.Problem{N: n, T: make([]int64, n), Async: make([]bool, n)}
	for i := 0; i < n; i++ {
		p.T[i] = int64(rng.Intn(20))
		p.Async[i] = rng.Intn(2) == 0
	}
	for m := rng.Intn(2*n + 1); m > 0 && n > 1; m-- {
		x := rng.Intn(n - 1)
		p.Edges = append(p.Edges, [2]int{x, x + 1 + rng.Intn(n-1-x)})
	}
	if pValid < 1 {
		ok := make([]bool, n*n)
		for i := range ok {
			ok[i] = rng.Float64() < pValid
		}
		p.Valid = func(s, e int) bool { return ok[s*n+e] }
	}
	return p
}

// TestSolveMatchesReference checks Solve against the reference DP on the
// real placement problems of the benchmarks and of a progen corpus, and
// on random problems with random VALID predicates.
func TestSolveMatchesReference(t *testing.T) {
	t.Run("benchmarks", func(t *testing.T) {
		for _, b := range bench.All() {
			probs := roundProblems(t, b.Name, b.Src(b.RepairSize))
			for i, p := range probs {
				checkAgainstReference(t, fmt.Sprintf("%s group %d (n=%d)", b.Name, i, p.N), p)
			}
		}
	})
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(12))
		var unsat, sat int
		for i := 0; i < 240; i++ {
			pValid := []float64{1, 0.9, 0.5, 0.2}[i%4]
			p := randomProblem(rng, pValid)
			if err := checkAgainstReference(t, fmt.Sprintf("random %d (n=%d, pValid=%v)", i, p.N, pValid), p); err != nil {
				unsat++
			} else {
				sat++
			}
		}
		if unsat < 10 || sat < 10 {
			t.Fatalf("random corpus has %d unsatisfiable and %d satisfiable problems; want >= 10 of each", unsat, sat)
		}
	})
	t.Run("progen", func(t *testing.T) {
		cfg := progen.Default()
		cfg.Commute = true
		var solved int
		for seed := int64(0); seed < 40; seed++ {
			name := fmt.Sprintf("progen seed %d", seed)
			for i, p := range roundProblems(t, name, progen.Gen(seed, cfg)) {
				checkAgainstReference(t, fmt.Sprintf("%s group %d (n=%d)", name, i, p.N), p)
				solved++
			}
		}
		if solved == 0 {
			t.Fatal("progen corpus produced no placement problem")
		}
	})
}

// TestSolveBudgetMatchesReference pins the DP-state budget semantics on
// LUFact's largest group: a limit trips Solve at the same cell, with the
// same Limit and Used, as the reference DP, so -max-dp-states degrades
// exactly as before.
func TestSolveBudgetMatchesReference(t *testing.T) {
	p := largestLUFactGroup(t)
	sol, err := repair.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	total := sol.States
	for _, limit := range []int64{1, total / 2, total - 1, total} {
		run := func(solve func(*repair.Problem) (*repair.Solution, error)) error {
			q := *p
			q.Meter = guard.NewMeter(context.Background(), guard.Budget{MaxDPStates: limit})
			_, err := solve(&q)
			return err
		}
		got, want := run(repair.Solve), run(repair.SolveReference)
		if !sameError(got, want) {
			t.Fatalf("MaxDPStates %d of %d: Solve error %v, reference error %v", limit, total, got, want)
		}
		var bx *guard.BudgetExceededError
		if tripped := errors.As(got, &bx); tripped != (limit < total) {
			t.Fatalf("MaxDPStates %d of %d: error %v", limit, total, got)
		}
	}
}

// BenchmarkPlaceLUFact solves LUFact's largest real placement problem,
// VALID predicate included — the DP that dominates its repair.
func BenchmarkPlaceLUFact(b *testing.B) {
	p := largestLUFactGroup(b)
	var states int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := repair.Solve(p)
		if err != nil {
			b.Fatal(err)
		}
		states = sol.States
	}
	b.ReportMetric(float64(states), "dp_states/op")
}
