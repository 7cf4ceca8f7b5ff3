package tdr

import (
	"context"
	"fmt"

	"finishrepair/internal/coverage"
	"finishrepair/internal/guard"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/lang/printer"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/repair"
)

// Coverage reports how much of the program the built-in test input
// exercises — the paper's §9 test-adequacy analysis. An input that
// leaves async statements unexecuted cannot drive their repair;
// Coverage.Adequate flags that.
type CoverageReport struct {
	Asyncs, AsyncsRun     int
	Finishes, FinishesRun int
	Stmts, StmtsRun       int
	Funcs, FuncsRun       int
}

// Adequate reports whether every async statement executed.
func (c CoverageReport) Adequate() bool { return c.AsyncsRun == c.Asyncs }

// String renders the summary.
func (c CoverageReport) String() string {
	return fmt.Sprintf("asyncs %d/%d, finishes %d/%d, statements %d/%d, functions %d/%d",
		c.AsyncsRun, c.Asyncs, c.FinishesRun, c.Finishes, c.StmtsRun, c.Stmts, c.FuncsRun, c.Funcs)
}

// Coverage measures the test coverage of the program's input.
func (p *Program) Coverage() (CoverageReport, error) {
	info, err := sem.Check(p.prog)
	if err != nil {
		return CoverageReport{}, fmt.Errorf("tdr: %w", err)
	}
	c, err := coverage.Measure(info)
	if err != nil {
		return CoverageReport{}, fmt.Errorf("tdr: %w", err)
	}
	return CoverageReport{
		Asyncs: c.Asyncs, AsyncsRun: c.AsyncsRun,
		Finishes: c.Finishes, FinishesRun: c.FinishesRun,
		Stmts: c.Stmts, StmtsRun: c.StmtsRun,
		Funcs: c.Funcs, FuncsRun: c.FuncsRun,
	}, nil
}

// RepairAcross applies the tool iteratively over several test inputs
// (paper §2: "the tool is applied iteratively for different test
// inputs"). The inputs are renderings of ONE program that differ only in
// constants (e.g. input sizes); block structure must be identical, which
// holds when they come from the same template.
//
// Each input's repair placements are replayed onto the next input before
// its own detection runs, so later inputs only contribute repairs for
// races the earlier inputs missed. The returned source is the final
// rendering (last input) with every inserted finish; the report
// aggregates all rounds.
func RepairAcross(srcs []string, opts RepairOptions) (string, *RepairReport, error) {
	return RepairAcrossCtx(context.Background(), srcs, opts)
}

// RepairAcrossCtx is RepairAcross with cancellation and a budget. ONE
// meter spans every input: the op, DP-state, and wall-clock budgets are
// cumulative across the whole multi-input session, not per input.
func RepairAcrossCtx(ctx context.Context, srcs []string, opts RepairOptions) (string, *RepairReport, error) {
	if len(srcs) == 0 {
		return "", nil, fmt.Errorf("tdr: no inputs")
	}
	m := guard.NewMeter(ctx, opts.Budget)
	maxIter := opts.MaxIterations
	if maxIter == 0 {
		maxIter = opts.Budget.Iterations()
	}
	total := &RepairReport{}
	var applied []repair.Iteration
	for i, src := range srcs {
		prog, err := parser.Parse(src)
		if err != nil {
			return "", nil, fmt.Errorf("tdr: input %d: %w", i, err)
		}
		if _, err := sem.Check(prog); err != nil {
			return "", nil, fmt.Errorf("tdr: input %d: %w", i, err)
		}
		if err := repair.Replay(prog, applied); err != nil {
			return "", nil, fmt.Errorf("tdr: input %d: %w", i, err)
		}
		v := raceVariant(opts.Detector)
		var rep *repair.Report
		err = guard.Protect("repair", func() error {
			var rerr error
			rep, rerr = repair.Repair(prog, repair.Options{
				Variant:       v,
				MaxIterations: maxIter,
				Tracer:        opts.Tracer,
				Meter:         m,
			})
			return rerr
		})
		if err != nil {
			return "", nil, fmt.Errorf("tdr: input %d: %w", i, err)
		}
		applied = append(applied, rep.Iterations...)
		part := convertReport(rep)
		total.Iterations += part.Iterations
		total.RacesFound += part.RacesFound
		total.FinishesInserted += part.FinishesInserted
		total.PerIteration = append(total.PerIteration, part.PerIteration...)
		total.Output = part.Output
		if part.Degraded && !total.Degraded {
			total.Degraded = true
			total.DegradedReason = part.DegradedReason
		}
	}

	final, err := parser.Parse(srcs[len(srcs)-1])
	if err != nil {
		return "", nil, err
	}
	if err := repair.Replay(final, applied); err != nil {
		return "", nil, err
	}
	if _, err := sem.Check(final); err != nil {
		return "", nil, fmt.Errorf("tdr: repaired program invalid: %w", err)
	}
	return printer.Print(final), total, nil
}
