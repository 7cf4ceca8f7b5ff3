// Package coverage implements test-coverage analysis for the repair
// tool — the paper's §9 future-work item: "test coverage analysis to
// evaluate the suitability of a given set of test cases for program
// repair". A test input can only drive repairs for the code it actually
// executes; low async coverage warns that races may hide in unexecuted
// spawns.
package coverage

import (
	"fmt"

	"finishrepair/internal/dpst"
	"finishrepair/internal/interp"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/sem"
)

// Coverage summarizes how much of the program one test input exercised.
type Coverage struct {
	// Asyncs/Finishes: static parallel constructs vs those executed at
	// least once.
	Asyncs, AsyncsRun     int
	Finishes, FinishesRun int
	// Stmts: top-level statement slots across all blocks vs those
	// covered by at least one step or construct instance.
	Stmts, StmtsRun int
	// Funcs: declared functions vs those entered.
	Funcs, FuncsRun int
}

// AsyncCoverage returns the fraction of async statements executed.
func (c Coverage) AsyncCoverage() float64 { return frac(c.AsyncsRun, c.Asyncs) }

// StmtCoverage returns the fraction of statements executed.
func (c Coverage) StmtCoverage() float64 { return frac(c.StmtsRun, c.Stmts) }

func frac(a, b int) float64 {
	if b == 0 {
		return 1
	}
	return float64(a) / float64(b)
}

// String renders the summary.
func (c Coverage) String() string {
	return fmt.Sprintf("asyncs %d/%d, finishes %d/%d, statements %d/%d, functions %d/%d",
		c.AsyncsRun, c.Asyncs, c.FinishesRun, c.Finishes, c.StmtsRun, c.Stmts, c.FuncsRun, c.Funcs)
}

// Adequate reports whether the input suffices for repair confidence:
// every async statement must have executed (unexecuted spawns can hide
// races the repair cannot see).
func (c Coverage) Adequate() bool { return c.AsyncsRun == c.Asyncs }

// Measure runs the canonical instrumented execution and computes the
// coverage of the program under its built-in input.
func Measure(info *sem.Info) (Coverage, error) {
	// NoCollapse: maximal-step collapsing folds executed scopes into
	// coarse steps and would destroy coverage granularity.
	res, err := interp.Run(info, interp.Options{
		Mode:       interp.DepthFirst,
		Instrument: true,
		NoCollapse: true,
	})
	if err != nil {
		return Coverage{}, err
	}
	return fromTree(info.Prog, res.Tree), nil
}

func fromTree(prog *ast.Program, tree *dpst.Tree) Coverage {
	var c Coverage

	// Static totals.
	asyncSet := map[ast.Stmt]bool{}
	finishSet := map[ast.Stmt]bool{}
	ast.Inspect(prog, func(s ast.Stmt) {
		switch s.(type) {
		case *ast.AsyncStmt:
			asyncSet[s] = false
		case *ast.FinishStmt:
			finishSet[s] = false
		}
	})
	c.Asyncs = len(asyncSet)
	c.Finishes = len(finishSet)
	blockStmts := 0
	for _, b := range ast.Blocks(prog) {
		blockStmts += len(b.Stmts)
	}
	c.Stmts = blockStmts
	c.Funcs = len(prog.Funcs)

	// Dynamic marks from the S-DPST.
	type slot struct {
		block int
		idx   int
	}
	covered := map[slot]bool{}
	funcsRun := map[*ast.Block]bool{}
	tree.Walk(func(n *dpst.Node) {
		if (n.Kind == dpst.Async || n.Kind == dpst.Finish) && n.OwnerBlock != nil && n.StmtLo >= 0 {
			// The construct that opened the node is its owner block's
			// statement at StmtLo.
			switch st := n.OwnerBlock.Stmts[n.StmtLo].(type) {
			case *ast.AsyncStmt:
				asyncSet[st] = true
			case *ast.FinishStmt:
				finishSet[st] = true
			}
		}
		if n.Kind == dpst.Scope && n.Class == dpst.CallScope && n.Body != nil {
			funcsRun[n.Body] = true
		}
		if n.OwnerBlock != nil && n.StmtHi >= 0 {
			// A range starting at the loop-header pseudo-index (-1)
			// still covers the real statements it extended into.
			lo := n.StmtLo
			if lo < 0 {
				lo = 0
			}
			hi := n.StmtHi
			if hi >= len(n.OwnerBlock.Stmts) {
				hi = len(n.OwnerBlock.Stmts) - 1
			}
			for i := lo; i <= hi; i++ {
				covered[slot{n.OwnerBlock.ID, i}] = true
			}
		}
	})
	for _, run := range asyncSet {
		if run {
			c.AsyncsRun++
		}
	}
	for _, run := range finishSet {
		if run {
			c.FinishesRun++
		}
	}
	c.StmtsRun = len(covered)
	for _, fn := range prog.Funcs {
		if funcsRun[fn.Body] {
			c.FuncsRun++
		}
	}
	return c
}
