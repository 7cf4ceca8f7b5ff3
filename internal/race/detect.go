package race

import (
	"time"

	"finishrepair/internal/faults"
	"finishrepair/internal/guard"
	"finishrepair/internal/interp"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/obs"
	"finishrepair/internal/trace"
)

// Detection metrics, aggregated across all runs in the process.
var (
	mDetectRuns    = obs.Default().Counter("race.detect_runs")
	mRacesFound    = obs.Default().Counter("race.races_found")
	mRacesPerRun   = obs.Default().Histogram("race.races_per_run")
	mSDPSTNodes    = obs.Default().Gauge("race.sdpst_nodes")
	mTraceCaptures = obs.Default().Counter("race.trace_captures")
	mAnalyzeNs     = obs.Default().Histogram("race.analyze_ns")
	mShadowCells   = obs.Default().Histogram("race.shadow_cells")
	mAnalyzeShards = obs.Default().Gauge("race.analyze_shards")
	mDualQueries   = obs.Default().Counter("race.dual_queries")
	mRawReports    = obs.Default().Counter("race.raw_reports")
)

// ShadowSizer is implemented by detectors that can report the size of
// their shadow memory (distinct locations tracked), for the
// race.shadow_cells distribution.
type ShadowSizer interface {
	ShadowCells() int
}

// Variant selects the detector flavor.
type Variant int

// Detector variants (paper §4.1).
const (
	VariantSRW Variant = iota
	VariantMRW
)

// String names the variant.
func (v Variant) String() string {
	if v == VariantSRW {
		return "SRW"
	}
	return "MRW"
}

// New returns a fresh detector of the given variant over oracle o.
func New(v Variant, o Oracle) Detector {
	if v == VariantSRW {
		return NewSRW(o)
	}
	return NewMRW(o)
}

// Capture executes the canonical sequential depth-first run of the
// checked program once, recording the event-trace IR. The returned
// trace can then be analyzed any number of times — by different
// engines, with different collapse policies, or with virtual finish
// scopes injected — without re-executing the program. Capture builds
// no S-DPST (the result's Tree is nil); replay builds it.
func Capture(info *sem.Info, m *guard.Meter) (*interp.Result, *trace.Trace, error) {
	m.SetPhase("trace-capture")
	if err := faults.Inject(faults.Detect); err != nil {
		return nil, nil, err
	}
	rec := trace.NewRecorder()
	res, err := interp.Run(info, interp.Options{
		Mode:       interp.DepthFirst,
		Instrument: true,
		Trace:      rec,
		Meter:      m,
	})
	if err != nil {
		return res, nil, err
	}
	mTraceCaptures.Inc()
	return res, rec.Trace(), nil
}

// Analyze replays a captured trace against a detector engine,
// reconstructing the S-DPST (optionally with virtual finish scopes
// injected) and feeding every structure and access event to det. The
// races det holds afterwards reference the returned replayed tree.
func Analyze(tr *trace.Trace, prog *ast.Program, fins []trace.FinishRange, det Detector, m *guard.Meter, noCollapse bool) (*trace.Result, error) {
	m.SetPhase("detect")
	if p, ok := det.(Presizer); ok {
		p.Presize(tr.Len())
	}
	t0 := time.Now()
	rr, err := trace.Replay(tr, trace.ReplayOptions{
		Prog:       prog,
		Finishes:   fins,
		Sink:       det,
		NoCollapse: noCollapse,
		Meter:      m,
	})
	if err != nil {
		return nil, err
	}
	observeAnalysis(det, rr, time.Since(t0))
	return rr, nil
}

// observeAnalysis records the per-analysis metrics shared by the serial
// and sharded paths.
func observeAnalysis(det Detector, rr *trace.Result, elapsed time.Duration) {
	mAnalyzeNs.Observe(elapsed.Nanoseconds())
	if s, ok := det.(ShadowSizer); ok {
		mShadowCells.Observe(int64(s.ShadowCells()))
	}
	mDetectRuns.Inc()
	n := int64(len(det.Races()))
	mRacesFound.Add(n)
	if rc := recorderOf(det); rc != nil {
		mRawReports.Add(int64(rc.n))
	}
	mRacesPerRun.Observe(n)
	if rr.Tree != nil {
		mSDPSTNodes.Set(int64(rr.Tree.NumNodes()))
	}
	if f, ok := det.(*Fused); ok {
		mDualQueries.Add(int64(f.Queries()))
	}
}

// recorderOf returns the recorder behind det's Races(), or nil for a
// detector without one.
func recorderOf(det Detector) *recorder {
	switch d := det.(type) {
	case ordStamper:
		return d.recorder()
	case namedEngine:
		return recorderOf(d.Detector)
	case *Fused:
		return recorderOf(d.Detector)
	}
	return nil
}

// Detect captures the canonical sequential execution of the checked
// program and analyzes it with a fresh detector: capture once, analyze
// once. The returned result carries the replayed S-DPST (the tree the
// detector's races reference).
func Detect(info *sem.Info, v Variant, o Oracle) (*interp.Result, Detector, error) {
	res, tr, err := Capture(info, nil)
	if err != nil {
		return res, nil, err
	}
	det := New(v, o)
	rr, err := Analyze(tr, info.Prog, nil, det, nil, false)
	if err != nil {
		return res, det, err
	}
	res.Tree = rr.Tree
	res.Steps = rr.Steps
	return res, det, nil
}
