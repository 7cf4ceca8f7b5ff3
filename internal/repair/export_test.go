package repair

import "finishrepair/internal/race"

// SolveReference exposes the pre-memoization Algorithm 1 to the external
// differential tests.
var SolveReference = solveReference

// GroupProblems returns the placement problem placeGroup hands to Solve
// for every NS-LCA group of races that reaches the DP under the default
// MaxGraph, in group order. VALID is tabulated over every (s, e) here,
// so the problems stay usable after the round's tree is released (the
// Options.OnRaces ownership rule); the table answers exactly as
// groupProblem's closure over the live nodes does.
func GroupProblems(races []*race.Race) ([]*Problem, error) {
	var opts Options
	opts.fill()
	var probs []*Problem
	for _, g := range groupByNSLCA(races) {
		nodes, edges, err := depGraph(g)
		if err != nil {
			return nil, err
		}
		if len(edges) == 0 || len(nodes) > opts.MaxGraph {
			continue
		}
		p := groupProblem(nodes, edges, nil)
		n := p.N
		valid := make([]bool, n*n)
		for s := 0; s < n; s++ {
			for e := 0; e < n; e++ {
				valid[s*n+e] = p.Valid(s, e)
			}
		}
		p.Valid = func(s, e int) bool { return valid[s*n+e] }
		probs = append(probs, p)
	}
	return probs, nil
}
