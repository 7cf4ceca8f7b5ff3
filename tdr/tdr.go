// Package tdr is the public facade of the test-driven data-race repair
// tool (Surendran et al., PLDI 2014): load an HJ-lite structured
// parallel program, detect the data races of its canonical sequential
// execution, and insert finish statements that eliminate them while
// maximizing parallelism and respecting the program's lexical scope.
//
// Typical use:
//
//	p, err := tdr.Load(src)
//	report, err := p.Repair(tdr.RepairOptions{})
//	fmt.Println(p.Source())       // program with inserted finishes
//	out, err := p.RunParallel(0)  // execute on real tasks
package tdr

import (
	"context"
	"errors"
	"fmt"
	"time"

	"finishrepair/internal/adversary"
	"finishrepair/internal/analysis"
	"finishrepair/internal/cpl"
	"finishrepair/internal/dpst"
	"finishrepair/internal/faults"
	"finishrepair/internal/guard"
	"finishrepair/internal/interp"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/lang/printer"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/obs"
	"finishrepair/internal/obs/provenance"
	"finishrepair/internal/parinterp"
	"finishrepair/internal/race"
	"finishrepair/internal/repair"
	"finishrepair/internal/trace"
	"finishrepair/taskpar"
)

// Program is a loaded HJ-lite program.
type Program struct {
	prog   *ast.Program
	tracer *obs.Tracer
}

// Load parses and checks an HJ-lite source program.
func Load(src string) (*Program, error) { return LoadTraced(src, nil) }

// LoadCtx is Load with cancellation and a budget: the front end checks
// ctx before each phase and any panic surfaces as an *InternalError.
func LoadCtx(ctx context.Context, src string, b Budget) (*Program, error) {
	return loadGuarded(ctx, src, b, nil)
}

// LoadTraced is Load with observability: the front-end phases are
// recorded as "parse" and "sem-check" spans on tr, and tr becomes the
// program's tracer for later Detect/Repair/Run calls. A nil tracer makes
// LoadTraced identical to Load.
func LoadTraced(src string, tr *obs.Tracer) (*Program, error) {
	return loadGuarded(nil, src, Budget{}, tr)
}

func loadGuarded(ctx context.Context, src string, b Budget, tr *obs.Tracer) (*Program, error) {
	m := guard.NewMeter(ctx, b)
	var prog *ast.Program
	err := guard.Protect("parse", func() error {
		m.SetPhase("parse")
		if err := m.Check(); err != nil {
			return err
		}
		if err := faults.Inject(faults.Parse); err != nil {
			return err
		}
		sp := tr.Start("parse").SetInt("source_bytes", int64(len(src)))
		var perr error
		prog, perr = parser.Parse(src)
		sp.End()
		return perr
	})
	if err != nil {
		return nil, fmt.Errorf("tdr: %w", err)
	}
	err = guard.Protect("sem-check", func() error {
		m.SetPhase("sem-check")
		if err := m.Check(); err != nil {
			return err
		}
		if err := faults.Inject(faults.SemCheck); err != nil {
			return err
		}
		sp := tr.Start("sem-check")
		_, serr := sem.Check(prog)
		sp.End()
		return serr
	})
	if err != nil {
		return nil, fmt.Errorf("tdr: %w", err)
	}
	return &Program{prog: prog, tracer: tr}, nil
}

// Tracer returns the tracer attached at load time (nil when untraced).
func (p *Program) Tracer() *obs.Tracer { return p.tracer }

// Source renders the (possibly repaired) program as HJ-lite source.
func (p *Program) Source() string { return printer.Print(p.prog) }

// StripFinishes removes every finish statement (the paper's way of
// producing buggy inputs for evaluation); it returns how many were
// removed.
func (p *Program) StripFinishes() int { return ast.StripFinishes(p.prog) }

// CountFinishes returns the number of finish statements.
func (p *Program) CountFinishes() int { return ast.CountFinishes(p.prog) }

// Detector selects the race-detector variant.
type Detector int

// Detector variants (paper §4.1).
const (
	MRW Detector = iota // multiple reader-writer: all races in one run
	SRW                 // single reader-writer: classic ESP-Bags subset
)

// Engine selects the race-detector backend that analyzes the captured
// event trace.
type Engine int

// Detector engines.
const (
	// ESPBags is the paper's ESP-Bags detector (default).
	ESPBags Engine = iota
	// VC is the vector-clock detector (after Kumar et al.).
	VC
	// Both answers every ordering query of one detection scan with
	// ESP-Bags and VC in lockstep; any divergence surfaces as a
	// *DisagreementError.
	Both
)

// DisagreementError reports that the ESP-Bags and vector-clock oracles
// answered an ordering query differently (Engine Both). Test with
// errors.As.
type DisagreementError = race.DisagreementError

// ParseDetector maps a -detector flag value to a variant and engine:
// the legacy values "mrw" and "srw" select the detector variant (with
// the ESP-Bags engine), while "espbags", "vc", and "both" select the
// engine (with the MRW variant).
func ParseDetector(s string) (Detector, Engine, bool) {
	switch s {
	case "mrw":
		return MRW, ESPBags, true
	case "srw":
		return SRW, ESPBags, true
	case "espbags":
		return MRW, ESPBags, true
	case "vc":
		return MRW, VC, true
	case "both":
		return MRW, Both, true
	}
	return MRW, ESPBags, false
}

func engineKind(e Engine) race.EngineKind {
	switch e {
	case VC:
		return race.EngineVC
	case Both:
		return race.EngineBoth
	default:
		return race.EngineESPBags
	}
}

// Strategy selects how the repair eliminates each race group.
type Strategy int

// Repair strategies.
const (
	// Finish is the paper's repair: insert finish statements (default).
	Finish Strategy = iota
	// Isolated wraps commutative conflicting updates in isolated
	// blocks wherever that eliminates the group's races, falling back
	// to finish insertion per group where it does not.
	Isolated
	// Auto evaluates both candidates per race group and picks the one
	// with the shorter post-repair critical path (finish on ties).
	Auto
)

// ParseStrategy maps a -strategy flag value to a Strategy.
func ParseStrategy(s string) (Strategy, bool) {
	r, ok := repair.ParseStrategy(s)
	switch r {
	case repair.StrategyIsolated:
		return Isolated, ok
	case repair.StrategyAuto:
		return Auto, ok
	default:
		return Finish, ok
	}
}

// String renders the strategy as its flag value.
func (s Strategy) String() string { return repairStrategy(s).String() }

func repairStrategy(s Strategy) repair.Strategy {
	switch s {
	case Isolated:
		return repair.StrategyIsolated
	case Auto:
		return repair.StrategyAuto
	default:
		return repair.StrategyFinish
	}
}

// RaceInfo describes one detected data race.
type RaceInfo struct {
	// Kind is "W->W", "R->W", or "W->R" (source access -> sink access).
	Kind string
	// SrcStep and DstStep are S-DPST step IDs (source is DFS-earlier).
	SrcStep, DstStep int
	// SrcPos and DstPos are source positions of the statements the
	// racing steps cover, when known ("line:col").
	SrcPos, DstPos string
}

// RaceReport summarizes a detection run.
type RaceReport struct {
	Races      []RaceInfo
	SDPSTNodes int
	Output     string
}

// Detect runs the canonical sequential depth-first execution with the
// chosen detector and reports all races found.
func (p *Program) Detect(d Detector) (*RaceReport, error) {
	return p.DetectCtx(context.Background(), d, Budget{})
}

// DetectCtx is Detect with cancellation and a budget: the instrumented
// execution charges against b's op and S-DPST-node limits and aborts
// with a typed error when ctx is canceled or a limit trips.
func (p *Program) DetectCtx(ctx context.Context, d Detector, b Budget) (*RaceReport, error) {
	return p.DetectEngineCtx(ctx, d, ESPBags, b)
}

// DetectEngineCtx is DetectCtx with an explicit detector engine: the
// program is captured once as an event trace and the trace is analyzed
// by the chosen backend. Engine Both cross-checks ESP-Bags against the
// vector-clock detector on every ordering query and fails with a
// *DisagreementError on any divergence.
func (p *Program) DetectEngineCtx(ctx context.Context, d Detector, e Engine, b Budget) (*RaceReport, error) {
	m := guard.NewMeter(ctx, b)
	v := raceVariant(d)
	eng := race.NewEngine(engineKind(e), v)
	var rep *RaceReport
	err := guard.Protect("detect", func() error {
		info, err := sem.Check(p.prog)
		if err != nil {
			return err
		}
		sp := p.tracer.Start("detect").
			SetStr("variant", v.String()).
			SetStr("engine", eng.Name())
		res, tr, err := race.Capture(info, m)
		if err != nil {
			sp.End()
			return err
		}
		rr, err := race.Analyze(tr, info.Prog, nil, eng, m, false)
		if err != nil {
			sp.End()
			return err
		}
		if f, ok := eng.(*race.Fused); ok {
			if cerr := f.Check(); cerr != nil {
				sp.End()
				return cerr
			}
		}
		sp.SetInt("races", int64(len(eng.Races()))).
			SetInt("sdpst_nodes", int64(rr.Tree.NumNodes())).
			End()
		rep = &RaceReport{SDPSTNodes: rr.Tree.NumNodes(), Output: res.Output}
		for _, r := range eng.Races() {
			rep.Races = append(rep.Races, RaceInfo{
				Kind:    r.Kind.String(),
				SrcStep: r.Src.ID,
				DstStep: r.Dst.ID,
				SrcPos:  stepPos(r.Src),
				DstPos:  stepPos(r.Dst),
			})
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("tdr: %w", err)
	}
	return rep, nil
}

// stepPos renders the source position of the first statement a step
// covers, when known.
func stepPos(n *dpst.Node) string { return n.StmtPos() }

// SDPSTDot runs the canonical instrumented execution and renders the
// S-DPST in Graphviz DOT format with the detected races as dotted red
// edges — the paper's Figure 9 for your program.
func (p *Program) SDPSTDot() (string, error) {
	info, err := sem.Check(p.prog)
	if err != nil {
		return "", fmt.Errorf("tdr: %w", err)
	}
	res, det, err := race.Detect(info, race.VariantMRW, race.NewBagsOracle())
	if err != nil {
		return "", fmt.Errorf("tdr: %w", err)
	}
	var edges [][2]*dpst.Node
	for _, r := range det.Races() {
		edges = append(edges, [2]*dpst.Node{r.Src, r.Dst})
	}
	return res.Tree.DOT(edges), nil
}

// RepairOptions configures Repair.
type RepairOptions struct {
	Detector Detector
	// Engine selects the detector backend (default ESPBags). Both
	// cross-checks every detection round and fails the repair with a
	// *DisagreementError if the engines ever diverge.
	Engine        Engine
	MaxIterations int
	// Budget bounds the run's resources (wall clock, interpreter ops, DP
	// states, S-DPST nodes, iterations). Zero value = defaults. A nonzero
	// MaxIterations field above takes precedence over Budget.MaxIterations.
	Budget Budget
	// Tracer records per-phase spans; when nil, the tracer attached by
	// LoadTraced (if any) is used.
	Tracer *obs.Tracer
	// Workers bounds the analysis parallelism: the first detection round
	// overlaps capture with analysis, Engine Both shards its scan across
	// this many workers, and the independent per-NS-LCA placement
	// problems and the post-repair
	// adversarial verification schedules run on a worker pool of this
	// size. The repaired program and every report are identical for any
	// worker count. 0 or 1 is fully sequential.
	Workers int
	// Vet runs the static analyzer over the program before the repair
	// and cross-references the static race-candidate set against the
	// dynamic races of every detection round. Candidates the test input
	// never exercised land in RepairReport.CoverageGaps — the repair is
	// only test-driven, and these are the pairs its guarantee does not
	// reach.
	Vet bool
	// StaticPrune supplies the repair loop with the static
	// may-happen-in-parallel oracle so NS-LCA groups that are statically
	// serial are skipped before placement. Because the static relation
	// over-approximates every dynamic race, the pruning provably never
	// changes the repaired program.
	StaticPrune bool
	// Explain records the structured provenance of the repair — per
	// iteration: detected race pairs, NS-LCA groups, DP placement
	// decisions, and critical-path length — in RepairReport.Explain
	// (hjrepair's -explain flag). Costs one CPL analysis per round.
	Explain bool
	// Witness replays every reported race under deterministic
	// race-directed schedules on the original program until it observably
	// diverges from the serial oracle, recording the divergence in
	// RepairReport.Witnesses; with Vet it also drives the coverage gaps
	// with position-directed schedules (RepairReport.GapVerdicts). It
	// implies a post-repair adversarial verification of
	// AdversarySchedules schedules (default DefaultAdversarySchedules).
	Witness bool
	// AdversarySchedules re-executes the repaired program under this many
	// adversarial schedules (race-directed plus seeded random-priority),
	// failing the repair with an *AdversaryError if any diverges from the
	// serial oracle. 0 with Witness means DefaultAdversarySchedules; 0
	// without Witness disables the stage.
	AdversarySchedules int
	// SchedSeed bases the seeded random-priority schedules; runs with the
	// same program, options, and seed are bit-identical.
	SchedSeed int64
	// Strategy selects how race groups are eliminated: finish insertion
	// (the zero value), isolated wrapping of commutative updates, or
	// per-group automatic choice by post-repair critical path.
	Strategy Strategy
}

// Explain is the structured repair-provenance record: why each finish
// was placed where it was. See the provenance package for the schema.
type Explain = provenance.Explain

// IterationReport details one detect/place/rewrite round.
type IterationReport struct {
	// Races found by this round's detection run (0 in the final,
	// race-free confirmation round).
	Races int
	// FinishesInserted counts the finish statements this round added.
	FinishesInserted int
	// NSLCAs is the number of race groups (distinct non-scope LCAs).
	NSLCAs int
	// SDPSTNodes is the size of this round's S-DPST.
	SDPSTNodes int
	// DPStates counts dynamic-programming states explored by the
	// placement phase.
	DPStates int64
	// DetectTime covers the instrumented detection run; PlaceTime the
	// NS-LCA grouping plus DP placement; RewriteTime the AST rewrite.
	DetectTime  time.Duration
	PlaceTime   time.Duration
	RewriteTime time.Duration
}

// RepairReport summarizes a repair.
type RepairReport struct {
	// Iterations is the number of detect/place/rewrite rounds (the last
	// one is the race-free confirmation).
	Iterations int
	// RacesFound is the total number of races detected across rounds.
	RacesFound int
	// FinishesInserted counts the inserted scope statements (finish and
	// isolated); IsolatedInserted counts how many of them are isolated.
	FinishesInserted int
	IsolatedInserted int
	// PerIteration details every round, in order.
	PerIteration []IterationReport
	// Output is the program output of the final race-free run.
	Output string
	// Degraded reports that a DP-state or deadline budget tripped
	// mid-placement and the repair fell back to the coarse sound
	// placement; DegradedReason carries the first trip. The result is
	// still verified race-free, just possibly over-synchronized.
	Degraded       bool
	DegradedReason string
	// StaticCandidates is the size of the static race-candidate set
	// (RepairOptions.Vet only).
	StaticCandidates int
	// CoverageGaps lists the static race candidates that no dynamic race
	// of the repair's detection rounds exercised (RepairOptions.Vet
	// only). The repaired program is race-free for the tested input;
	// these pairs are where other inputs could still race.
	CoverageGaps []CoverageGap
	// Explain is the finalized provenance record (RepairOptions.Explain
	// only): one entry per placed finish with its races, NS-LCA, DP
	// effort, and CPL before/after.
	Explain *Explain
	// Witnesses replays each reported race to a concrete divergence
	// (RepairOptions.Witness only): one entry per race a deterministic
	// schedule made observably misbehave on the original program.
	Witnesses []Witness
	// Adversary summarizes the post-repair K-schedule verification
	// (RepairOptions.Witness or AdversarySchedules > 0).
	Adversary *AdversaryReport
	// GapVerdicts are the schedule-search verdicts for CoverageGaps
	// (RepairOptions.Witness with Vet only), in the same order.
	GapVerdicts []GapVerdict
}

// CoverageGap is one static race candidate the test input never
// exercised: a statement pair that may run in parallel with conflicting
// effects, with no dynamic race covering it.
type CoverageGap struct {
	// APos and BPos are the "line:col" positions of the two statements;
	// AFunc and BFunc their enclosing functions.
	APos, BPos   string
	AFunc, BFunc string
	// Loc is the conflicting abstract location ("x", "a[]"); Kind is
	// "W/W" or "R/W".
	Loc  string
	Kind string
}

// String renders the gap for reports.
func (g CoverageGap) String() string {
	return fmt.Sprintf("%s (%s) and %s (%s) on %s [%s]", g.APos, g.AFunc, g.BPos, g.BFunc, g.Loc, g.Kind)
}

// RacesPerIteration lists each round's race count, in order.
func (r *RepairReport) RacesPerIteration() []int {
	out := make([]int, len(r.PerIteration))
	for i, it := range r.PerIteration {
		out[i] = it.Races
	}
	return out
}

func raceVariant(d Detector) race.Variant {
	if d == SRW {
		return race.VariantSRW
	}
	return race.VariantMRW
}

// Repair runs the test-driven repair loop, mutating the program in
// place. After a successful repair the program is data-race-free for
// this input and Source returns the rewritten text.
//
// When the iteration bound is exhausted the error wraps
// *repair.MaxIterationsError and the partial report (every completed
// round) is returned alongside it.
func (p *Program) Repair(opts RepairOptions) (*RepairReport, error) {
	return p.RepairCtx(context.Background(), opts)
}

// RepairCtx is Repair with cancellation and a budget: canceling ctx
// aborts the loop mid-iteration with a *CanceledError; a tripped
// DP-state or deadline budget degrades to the coarse sound placement
// and marks the report Degraded; any panic surfaces as *InternalError.
// The partial report of the completed rounds accompanies every error.
func (p *Program) RepairCtx(ctx context.Context, opts RepairOptions) (*RepairReport, error) {
	v := raceVariant(opts.Detector)
	tr := opts.Tracer
	if tr == nil {
		tr = p.tracer
	}
	m := guard.NewMeter(ctx, opts.Budget)
	maxIter := opts.MaxIterations
	if maxIter == 0 {
		maxIter = opts.Budget.Iterations()
	}

	// The static pass runs over the pre-repair AST: the replay loop only
	// mutates the tree when it finishes, and candidate lookups key on
	// statement identity, so the results stay valid across rounds.
	var res *analysis.Result
	if opts.Vet || opts.StaticPrune {
		info, err := sem.Check(p.prog)
		if err != nil {
			return nil, fmt.Errorf("tdr: vet: %w", err)
		}
		vsp := tr.Start("vet")
		res = analysis.Analyze(info, vsp)
		vsp.SetInt("candidates", int64(len(res.Candidates()))).End()
	}
	ropts := repair.Options{
		Variant:       v,
		Engine:        engineKind(opts.Engine),
		MaxIterations: maxIter,
		Tracer:        tr,
		Meter:         m,
		Workers:       opts.Workers,
		Strategy:      repairStrategy(opts.Strategy),
	}
	if opts.Vet {
		ropts.OnRaces = func(races []*race.Race) {
			for _, r := range races {
				res.MarkCovered(r.Src, r.Dst)
			}
		}
	}
	// Adversary mode snapshots the pre-repair source (witnesses replay
	// the races where they were reported) and collects every detection
	// round's races as replay targets, deduplicated across rounds.
	adv := opts.Witness || opts.AdversarySchedules > 0
	var origSrc string
	var targets []adversary.RaceTarget
	if adv {
		origSrc = printer.Print(p.prog)
		seen := map[adversary.RaceTarget]bool{}
		prev := ropts.OnRaces
		ropts.OnRaces = func(races []*race.Race) {
			if prev != nil {
				prev(races)
			}
			for _, r := range races {
				t := adversary.RaceTarget{
					Loc:    r.Loc,
					Kind:   r.Kind.String(),
					SrcPos: r.Src.StmtPos(),
					DstPos: r.Dst.StmtPos(),
				}
				if !seen[t] {
					seen[t] = true
					targets = append(targets, t)
				}
			}
		}
	}
	if opts.StaticPrune {
		ropts.MHP = res.MayRunInParallel
	}
	var ex *provenance.Explain
	if opts.Explain {
		ex = &provenance.Explain{
			Detector: engineKind(opts.Engine).String(),
			Engine:   "replay",
		}
		ropts.Explain = ex
	}

	var rep *repair.Report
	err := guard.Protect("repair", func() error {
		var rerr error
		rep, rerr = repair.Repair(p.prog, ropts)
		return rerr
	})
	var report *RepairReport
	var advErr error
	if rep != nil {
		report = convertReport(rep)
		if opts.Vet {
			report.StaticCandidates = len(res.Candidates())
			for _, c := range res.UncoveredCandidates() {
				report.CoverageGaps = append(report.CoverageGaps, CoverageGap{
					APos:  c.APos.String(),
					BPos:  c.BPos.String(),
					AFunc: c.AFunc,
					BFunc: c.BFunc,
					Loc:   c.Loc,
					Kind:  c.Kind,
				})
			}
		}
		if adv {
			// Witnesses are searched even when the iteration bound
			// exhausted (the races are real either way); the gap search
			// and verification need a successful repair. Budget trips,
			// cancellation, and engine disagreement skip the stage.
			var mi *repair.MaxIterationsError
			if err == nil || errors.As(err, &mi) {
				advErr = p.adversaryStage(opts, m, report, origSrc, targets, res, err != nil)
			}
		}
		if ex != nil {
			if report.Degraded && ex.Degraded == "" {
				ex.Degraded = report.DegradedReason
			}
			for _, g := range report.CoverageGaps {
				ex.CoverageGaps = append(ex.CoverageGaps, g.String())
			}
			foldAdversary(ex, report)
			ex.Finalize()
			report.Explain = ex
		}
	}
	if err != nil {
		return report, fmt.Errorf("tdr: %w", err)
	}
	if advErr != nil {
		return report, fmt.Errorf("tdr: %w", advErr)
	}
	return report, nil
}

func convertReport(rep *repair.Report) *RepairReport {
	out := &RepairReport{
		Iterations:       len(rep.Iterations),
		RacesFound:       rep.TotalRaces(),
		FinishesInserted: rep.Inserted,
		Output:           rep.Output,
		Degraded:         rep.Degraded,
		DegradedReason:   rep.DegradedReason,
	}
	for _, it := range rep.Iterations {
		out.PerIteration = append(out.PerIteration, IterationReport{
			Races:            it.Races,
			FinishesInserted: it.Placements,
			NSLCAs:           it.NSLCAs,
			SDPSTNodes:       it.SDPSTNodes,
			DPStates:         it.DPStates,
			DetectTime:       it.DetectTime,
			PlaceTime:        it.PlaceTime,
			RewriteTime:      it.RewriteTime,
		})
		for _, a := range it.Applied {
			if a.Kind == trace.RangeIsolated {
				out.IsolatedInserted++
			}
		}
	}
	return out
}

// RunSequential executes the serial elision (async/finish ignored) and
// returns its output — the semantic reference.
func (p *Program) RunSequential() (string, error) {
	return p.RunSequentialCtx(context.Background(), Budget{})
}

// RunSequentialCtx is RunSequential with cancellation and a budget.
func (p *Program) RunSequentialCtx(ctx context.Context, b Budget) (string, error) {
	m := guard.NewMeter(ctx, b)
	var out string
	err := guard.Protect("sequential-run", func() error {
		m.SetPhase("sequential-run")
		if err := faults.Inject(faults.SequentialRun); err != nil {
			return err
		}
		info, err := sem.Check(p.prog)
		if err != nil {
			return err
		}
		sp := p.tracer.Start("sequential-run")
		res, rerr := interp.Run(info, interp.Options{Mode: interp.Elide, Meter: m})
		sp.End()
		if rerr != nil {
			return rerr
		}
		out = res.Output
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("tdr: %w", err)
	}
	return out, nil
}

// RunParallel executes the program with real parallelism on a
// work-stealing pool of the given size (0 = GOMAXPROCS). The program
// should be race-free (expert-written or repaired).
func (p *Program) RunParallel(workers int) (string, error) {
	return p.RunParallelCtx(context.Background(), workers, Budget{})
}

// RunParallelCtx is RunParallel with cancellation and a budget: the
// parallel run charges coarse work units (loop iterations, calls, task
// spawns) against the op budget; on cancellation or a trip, tasks that
// have not started are skipped and the run returns a typed error.
func (p *Program) RunParallelCtx(ctx context.Context, workers int, b Budget) (string, error) {
	m := guard.NewMeter(ctx, b)
	var out string
	err := guard.Protect("parallel-run", func() error {
		info, err := sem.Check(p.prog)
		if err != nil {
			return err
		}
		exec := taskpar.NewPoolExecutor(workers)
		defer exec.Shutdown()
		sp := p.tracer.Start("parallel-run").SetInt("workers", int64(workers))
		res, rerr := parinterp.Run(info, parinterp.Options{Executor: exec, Meter: m})
		sp.End()
		if rerr != nil {
			return rerr
		}
		out = res.Output
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("tdr: %w", err)
	}
	return out, nil
}

// Parallelism summarizes the available parallelism of an execution
// (Definition 1: maximal parallelism = minimal critical path length).
type Parallelism struct {
	// Work is the total work in abstract units (T1).
	Work int64
	// Span is the critical path length (T-infinity).
	Span int64
}

// Ratio returns Work/Span.
func (pl Parallelism) Ratio() float64 {
	if pl.Span == 0 {
		return 1
	}
	return float64(pl.Work) / float64(pl.Span)
}

// CriticalPath measures work and span of the program's execution on the
// deterministic cost model.
func (p *Program) CriticalPath() (Parallelism, error) {
	info, err := sem.Check(p.prog)
	if err != nil {
		return Parallelism{}, fmt.Errorf("tdr: %w", err)
	}
	res, err := interp.Run(info, interp.Options{Mode: interp.DepthFirst, Instrument: true})
	if err != nil {
		return Parallelism{}, fmt.Errorf("tdr: %w", err)
	}
	m := cpl.Analyze(res.Tree)
	return Parallelism{Work: m.Work, Span: m.Span}, nil
}
