// Package repair implements the paper's contribution: test-driven
// insertion of finish statements that eliminate the data races observed
// on a test input while maximizing parallelism and respecting the lexical
// scope of the input program.
//
// The pipeline (paper §3, Fig. 6):
//
//  1. detect races on the canonical depth-first execution (package race);
//  2. group races by the NS-LCA of their source and sink steps;
//  3. per NS-LCA, reduce the subtree to a dependence DAG over the
//     non-scope children (§5.1) and run the dynamic-programming optimal
//     finish placement (Algorithm 1, with the VALID static-scope check of
//     Algorithm 2 and the FIND extraction of Algorithm 3);
//  4. map each dynamic placement to the highest legal S-DPST insertion
//     point and from there to an AST (block, statement-range) rewrite
//     (§6);
//  5. re-run detection and iterate until race-free.
package repair

import (
	"fmt"
	"math"

	"finishrepair/internal/guard"
)

// Problem is the abstract optimal-finish-placement instance of §5.2: a
// DAG over vertices 0..N-1 (ordered left to right) where every edge
// (x, y) has x < y, vertex execution times T, and a static-validity
// predicate for candidate finish blocks.
type Problem struct {
	N     int
	T     []int64  // execution time of each vertex
	Async []bool   // whether vertex i is an async node
	Edges [][2]int // dependence edges (races), x < y
	// Valid reports whether a finish enclosing exactly vertices s..e is
	// statically expressible (Algorithm 2 / scope rules). Nil means
	// always valid.
	Valid func(s, e int) bool
	// Meter, when set, charges explored DP states against the pipeline's
	// shared budget and checks cancellation between cells; Solve returns
	// the meter's typed error mid-placement when a limit trips.
	Meter *guard.Meter
}

// FinishBlock is one (s, e) element of the FinishSet: a finish enclosing
// vertices s..e.
type FinishBlock struct {
	S, E int
}

// Solution is the DP result.
type Solution struct {
	// Cost is the optimal completion time COST(G) of the block 0..N-1.
	Cost int64
	// Finishes is the FinishSet extracted by Algorithm 3, outermost
	// first.
	Finishes []FinishBlock
	// States counts the (i, k, j) partition candidates the DP evaluated —
	// the work metric surfaced by the tracer and the repair.dp_states
	// counter.
	States int64
}

const inf = int64(math.MaxInt64 / 4)

// Solve runs the dynamic program of Algorithm 1 and extracts the finish
// set with Algorithm 3. It returns an error when some dependence cannot
// be satisfied by any statically valid finish placement.
func Solve(p *Problem) (*Solution, error) {
	n := p.N
	if n == 0 {
		return &Solution{}, nil
	}
	if len(p.T) != n || len(p.Async) != n {
		return nil, fmt.Errorf("repair: inconsistent problem arrays")
	}
	valid := p.Valid
	if valid == nil {
		valid = func(int, int) bool { return true }
	}

	// VALID depends only on the candidate block (s, e), not on the cell
	// being solved, so each block is checked at most once: validity[s*n+e]
	// is 0 until Valid runs, then validOK or validNo.
	const (
		validOK uint8 = 1 + iota
		validNo
	)
	validity := make([]uint8, n*n)

	// reach[j*n+x] is the furthest sink <= j of an edge leaving x, or -1.
	// Row j is row j-1 with the edges that end at j set, so a dependence
	// leaves i..k into k+1..j exactly when max(reach[j][i..k]) > k — a
	// running max over one contiguous row as k advances.
	reach := make([]int32, n*n)
	for x := range reach {
		reach[x] = -1
	}
	for _, e := range p.Edges {
		reach[e[1]*n+e[0]] = int32(e[1])
	}
	for j := 1; j < n; j++ {
		prev, row := reach[(j-1)*n:j*n], reach[j*n:(j+1)*n]
		for x, r := range row {
			if r < 0 {
				row[x] = prev[x]
			}
		}
	}

	idx := func(i, j int) int { return i*n + j }
	opt := make([]int64, n*n)
	est := make([]int64, n*n) // est[i][j]: earliest start of j+1 given block i..j
	part := make([]int, n*n)
	fin := make([]bool, n*n)

	for i := 0; i < n; i++ {
		opt[idx(i, i)] = p.T[i]
		part[idx(i, i)] = i
		if p.Async[i] {
			est[idx(i, i)] = 0
		} else {
			est[idx(i, i)] = p.T[i]
		}
	}

	sol := &Solution{}
	// Cells are solved in order of span length (anti-diagonals), so the
	// first unsatisfiable cell and every budget charge below happen in
	// the same sequence however the inner loop is organized.
	for s := 2; s <= n; s++ {
		for i := 0; i+s-1 < n; i++ {
			j := i + s - 1
			cmin := inf
			bestP, bestF := -1, false
			bestE := int64(0)
			sol.States += int64(j - i)
			// Budget/cancellation check once per cell: the DP-state limit
			// and the deadline both trip mid-placement, letting the repair
			// loop degrade to the coarse placement instead of crashing or
			// running away on huge dependence graphs.
			if err := p.Meter.AddDPStates(int64(j - i)); err != nil {
				return nil, err
			}
			optI, estI, validI := opt[i*n:(i+1)*n], est[i*n:(i+1)*n], validity[i*n:(i+1)*n]
			reachJ := reach[j*n : (j+1)*n]
			far := int32(-1)
			for k := i; k < j; k++ {
				far = max(far, reachJ[k])
				var c, e int64
				var f bool
				if int(far) > k {
					// A dependence crosses the partition: a finish around
					// i..k is required; it must be statically valid.
					if validI[k] == 0 {
						validI[k] = validNo
						if valid(i, k) {
							validI[k] = validOK
						}
					}
					if validI[k] == validNo {
						continue
					}
					c = optI[k] + opt[idx(k+1, j)]
					f = true
					e = optI[k] + est[idx(k+1, j)]
				} else {
					c = max(optI[k], estI[k]+opt[idx(k+1, j)])
					f = false
					e = estI[k] + est[idx(k+1, j)]
				}
				if c < cmin {
					cmin, bestP, bestF, bestE = c, k, f, e
				}
			}
			if bestP < 0 {
				return nil, &UnsatisfiableError{I: i, J: j}
			}
			opt[idx(i, j)] = cmin
			part[idx(i, j)] = bestP
			fin[idx(i, j)] = bestF
			est[idx(i, j)] = bestE
		}
	}

	sol.Cost = opt[idx(0, n-1)]
	// Algorithm 3 (with the split corrected to begin..p / p+1..end; the
	// paper's FIND(p, end) double-counts vertex p).
	var find func(begin, end int)
	find = func(begin, end int) {
		if begin >= end {
			return
		}
		pnt := part[idx(begin, end)]
		if fin[idx(begin, end)] {
			sol.Finishes = append(sol.Finishes, FinishBlock{S: begin, E: pnt})
		}
		find(begin, pnt)
		find(pnt+1, end)
	}
	find(0, n-1)
	return sol, nil
}

// UnsatisfiableError reports a subproblem whose crossing dependences have
// no statically valid finish placement.
type UnsatisfiableError struct {
	I, J int
}

// Error implements the error interface.
func (e *UnsatisfiableError) Error() string {
	return fmt.Sprintf("repair: no statically valid finish placement for vertices %d..%d", e.I, e.J)
}
