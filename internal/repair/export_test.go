package repair

import "finishrepair/internal/race"

// SolveReference exposes the pre-memoization Algorithm 1 to the external
// differential tests.
var SolveReference = solveReference

// GroupProblems returns the placement problem placeGroup hands to Solve
// for every NS-LCA group of races that reaches the DP under the default
// MaxGraph, in group order.
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
		probs = append(probs, groupProblem(nodes, edges, nil))
	}
	return probs, nil
}
