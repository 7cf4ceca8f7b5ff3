package repair

import "fmt"

// solveReference is the straightforward Algorithm 1 that Solve replaced:
// VALID is called inside the innermost k loop and crossings are answered
// from 2-D prefix sums over the edge matrix. It is kept as the
// differential oracle for Solve's memoized VALID and reach-row crossings.
func solveReference(p *Problem) (*Solution, error) {
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

	// cross(i, k, j): does any edge leave i..k into k+1..j? Answered in
	// O(1) from 2-D prefix sums over the edge matrix.
	w := n + 1
	sum := make([]int32, w*w)
	for _, e := range p.Edges {
		x, y := e[0], e[1]
		sum[(x+1)*w+(y+1)]++
	}
	for r := 1; r < w; r++ {
		for c := 1; c < w; c++ {
			sum[r*w+c] += sum[(r-1)*w+c] + sum[r*w+c-1] - sum[(r-1)*w+c-1]
		}
	}
	cross := func(i, k, j int) bool {
		rect := sum[(k+1)*w+(j+1)] - sum[i*w+(j+1)] - sum[(k+1)*w+(k+1)] + sum[i*w+(k+1)]
		return rect > 0
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
	for s := 2; s <= n; s++ {
		for i := 0; i+s-1 < n; i++ {
			j := i + s - 1
			cmin := inf
			bestP, bestF := -1, false
			bestE := int64(0)
			sol.States += int64(j - i)
			if err := p.Meter.AddDPStates(int64(j - i)); err != nil {
				return nil, err
			}
			for k := i; k < j; k++ {
				var c, e int64
				var f bool
				if cross(i, k, j) {
					if !valid(i, k) {
						continue
					}
					c = opt[idx(i, k)] + opt[idx(k+1, j)]
					f = true
					e = opt[idx(i, k)] + est[idx(k+1, j)]
				} else {
					c = max(opt[idx(i, k)], est[idx(i, k)]+opt[idx(k+1, j)])
					f = false
					e = est[idx(i, k)] + est[idx(k+1, j)]
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
