package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"finishrepair/internal/adversary"
	"finishrepair/internal/analysis"
	"finishrepair/internal/cpl"
	"finishrepair/internal/interp"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/lang/printer"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/obs"
	"finishrepair/internal/race"
	"finishrepair/internal/repair"
	"finishrepair/internal/trace"
	"finishrepair/tdr"
)

// layerMetric is one per-layer metric of the -trace 1 run. Exact
// metrics are work counts that must repeat on every pass.
type layerMetric struct {
	name, unit string
	exact      bool
}

var layerMetrics = []layerMetric{
	{"lang.parse_check_s", "s", false},
	{"interp.elide_s", "s", false},
	{"race.capture_s", "s", false},
	{"race.events", "count", true},
	{"race.capture_events_per_s", "1/s", false},
	{"race.analyze_s", "s", false},
	{"race.analyze_both_s", "s", false},
	{"race.races", "count", true},
	{"race.sdpst_nodes", "count", true},
	{"race.shadow_cells", "count", true},
	{"repair.wall_s", "s", false},
	{"repair.detect_s", "s", false},
	{"repair.place_s", "s", false},
	{"repair.rewrite_s", "s", false},
	{"repair.place_share", "1", false},
	{"repair.dp_states", "count", true},
	{"repair.dp_states_per_s", "1/s", false},
	{"repair.iterations", "count", true},
	{"repair.groups", "count", true},
	{"repair.inserted", "count", true},
	{"repair.isolated", "count", true},
	{"repair.degraded", "count", true},
	{"cpl.analyze_s", "s", false},
	{"analysis.vet_s", "s", false},
	{"analysis.candidates", "count", true},
	{"analysis.commute_verdicts", "count", true},
	{"analysis.commute_confirmed_ratio", "1", true},
	{"analysis.commute_refuted", "count", true},
	{"adversary.verify_s", "s", false},
	{"adversary.schedules", "count", true},
	{"adversary.failures", "count", true},
	{"adversary.yields", "count", true},
	{"adversary.schedules_per_s", "1/s", false},
	{"obs.trace_overhead", "1", false},
}

// layerRun is the -trace 1 run: one set-up, then for d alternating an
// untraced pass, a pass with the program's obs tracer attached, and a
// layer pass that calls each layer's public functions directly.
func (s *state) layerRun(d time.Duration) (map[string]metric, error) {
	if err := s.setup(); err != nil {
		return nil, err
	}
	s.printInputs()

	var untraced, traced []float64
	samples := map[string][]float64{}
	deadline := time.Now().Add(d)
	for n := 0; n < minPasses || time.Now().Before(deadline); n++ {
		// Alternate which of the pair runs first so that drift during
		// the run weighs on both alike.
		for _, tracedPass := range [2]bool{n%2 == 1, n%2 == 0} {
			pr := runPass(s.inputs, s.opts, tracedPass)
			if tracedPass {
				s.check(fmt.Sprintf("traced pass %d", n+1), pr)
				traced = append(traced, pr.wall.Seconds())
			} else {
				s.check(fmt.Sprintf("untraced pass %d", n+1), pr)
				untraced = append(untraced, pr.wall.Seconds())
			}
		}
		for k, v := range s.layerPass(fmt.Sprintf("layer pass %d", n+1)) {
			samples[k] = append(samples[k], v)
		}
	}
	samples["obs.trace_overhead"] = []float64{median(traced) / median(untraced)}

	out := map[string]metric{}
	for _, lm := range layerMetrics {
		xs := samples[lm.name]
		if lm.exact {
			for i, x := range xs {
				if x != xs[0] {
					s.fail("layer passes", lm.name, fmt.Errorf("pass %d counted %g, pass 1 counted %g", i+1, x, xs[0]))
				}
			}
		}
		out[lm.name] = metric{median(xs), lm.unit}
	}
	fmt.Printf("layer passes: %d; untraced pass median %.4f s, traced %.4f s\n", len(untraced), median(untraced), median(traced))
	return out, nil
}

// repairOptions is the repair-layer equivalent of the workload's tdr
// options (the vet and adversary stages are timed as their own layers).
func repairOptions(o tdr.RepairOptions) repair.Options {
	eng := race.EngineESPBags
	if o.Engine == tdr.Both {
		eng = race.EngineBoth
	}
	strat, _ := repair.ParseStrategy(o.Strategy.String())
	return repair.Options{
		Variant:       race.VariantMRW,
		Engine:        eng,
		MaxIterations: tdr.DefaultMaxIterations,
		UseTraceFiles: true,
		Workers:       o.Workers,
		Strategy:      strat,
	}
}

// layerPass runs every input through the layers one public call at a
// time, timing each call, and returns the pass's per-layer sums. Every
// result is checked against the references and the verified repair.
func (s *state) layerPass(label string) map[string]float64 {
	var (
		parseCheck, elide, capture, analyze, analyzeBoth    time.Duration
		repairWall, detect, place, rewrite, cplT, vet, advT time.Duration
		events, races, nodes, shadow, dpStates, iterations  int64
		groups, inserted, isolated, degraded, candidates    int64
		schedules, failures                                 int64
	)
	before := obs.Default().Snapshot()
	ropts := repairOptions(s.opts)
	for i, in := range s.inputs {
		s.attempted++
		err := func() error {
			runtime.GC()
			t := time.Now()
			prog, err := parser.Parse(in.src)
			if err != nil {
				return err
			}
			if in.strip {
				ast.StripFinishes(prog)
			}
			info, err := sem.Check(prog)
			parseCheck += time.Since(t)
			if err != nil {
				return err
			}

			t = time.Now()
			er, err := interp.Run(info, interp.Options{Mode: interp.Elide})
			elide += time.Since(t)
			if err != nil {
				return fmt.Errorf("elision: %w", err)
			}
			if er.Output != s.refs[i].elide {
				return fmt.Errorf("elision output %s differs from the reference %s", clip(er.Output), clip(s.refs[i].elide))
			}

			t = time.Now()
			_, tr, err := race.Capture(info, nil)
			capture += time.Since(t)
			if err != nil {
				return fmt.Errorf("capture: %w", err)
			}
			events += int64(tr.Len())

			det := race.New(race.VariantMRW, race.NewBagsOracle())
			t = time.Now()
			rr, err := race.Analyze(tr, info.Prog, nil, det, nil, false)
			analyze += time.Since(t)
			if err != nil {
				return fmt.Errorf("analyze: %w", err)
			}
			found := det.Races()
			races += int64(len(found))
			nodes += int64(rr.Tree.NumNodes())
			if ss, ok := det.(race.ShadowSizer); ok {
				shadow += int64(ss.ShadowCells())
			}
			locs := raceLocs(found)

			f := race.NewFused(race.VariantMRW)
			t = time.Now()
			_, err = race.AnalyzeParallel(tr, info.Prog, nil, f, nil, false, 2)
			analyzeBoth += time.Since(t)
			if err != nil {
				return fmt.Errorf("fused analyze: %w", err)
			}
			if err := f.Check(); err != nil {
				return err
			}
			if len(f.Races()) != len(found) {
				return fmt.Errorf("fused engine found %d races, ESP-Bags %d", len(f.Races()), len(found))
			}
			f.Release()
			if r, ok := det.(race.Releaser); ok {
				r.Release()
			}

			t = time.Now()
			res := analysis.Analyze(info, nil)
			vet += time.Since(t)
			candidates += int64(len(res.Candidates()))

			t = time.Now()
			rep, err := repair.Repair(prog, ropts)
			repairWall += time.Since(t)
			if err != nil {
				return fmt.Errorf("repair: %w", err)
			}
			dpStates += rep.TotalDPStates()
			iterations += int64(len(rep.Iterations))
			inserted += int64(rep.Inserted)
			if rep.Degraded {
				degraded++
			}
			for _, it := range rep.Iterations {
				detect += it.DetectTime
				place += it.PlaceTime
				rewrite += it.RewriteTime
				groups += int64(it.NSLCAs)
				for _, a := range it.Applied {
					if a.Kind == trace.RangeIsolated {
						isolated++
					}
				}
			}
			if got := digest(printer.Print(prog)); got != s.ok[i].digest {
				return fmt.Errorf("repair layer output digest %s differs from the pipeline's %s", got, s.ok[i].digest)
			}

			rinfo, err := sem.Check(prog)
			if err != nil {
				return err
			}
			dr, err := interp.Run(rinfo, interp.Options{Mode: interp.DepthFirst, Instrument: true})
			if err != nil {
				return fmt.Errorf("repaired instrumented run: %w", err)
			}
			t = time.Now()
			m := cpl.Analyze(dr.Tree)
			cplT += time.Since(t)
			if m.Span != s.ok[i].span {
				return fmt.Errorf("cpl span %d differs from the verified %d", m.Span, s.ok[i].span)
			}

			t = time.Now()
			oracle, err := adversary.Oracle(rinfo, nil)
			if err != nil {
				return fmt.Errorf("adversary oracle: %w", err)
			}
			vr, err := adversary.Verify(rinfo, oracle, adversary.VerifySchedules(locs, adversarySchedules, s.seed), adversary.SearchOptions{Seed: s.seed})
			advT += time.Since(t)
			if err != nil {
				return fmt.Errorf("adversary verify: %w", err)
			}
			schedules += int64(len(vr.Schedules))
			failures += int64(vr.Failures)
			if vr.Failures != 0 {
				return fmt.Errorf("adversary: %d of %d schedules diverged", vr.Failures, len(vr.Schedules))
			}
			return nil
		}()
		if err != nil {
			s.fail(label, in.name, err)
		}
	}

	delta := map[string]int64{}
	for _, smp := range obs.Default().Delta(before) {
		delta[smp.Name] = smp.Value
	}
	verdicts, confirmed := delta["analysis.commute_verdicts"], delta["analysis.commute_confirmed"]
	if n := delta["analysis.commute_refuted"]; n != 0 {
		s.fail(label, "analysis.commute_refuted", fmt.Errorf("%d probe-refuted commute verdict(s)", n))
	}
	confirmedRatio := 0.0
	if verdicts > 0 {
		confirmedRatio = float64(confirmed) / float64(verdicts)
	}
	return map[string]float64{
		"lang.parse_check_s":               parseCheck.Seconds(),
		"interp.elide_s":                   elide.Seconds(),
		"race.capture_s":                   capture.Seconds(),
		"race.events":                      float64(events),
		"race.capture_events_per_s":        float64(events) / capture.Seconds(),
		"race.analyze_s":                   analyze.Seconds(),
		"race.analyze_both_s":              analyzeBoth.Seconds(),
		"race.races":                       float64(races),
		"race.sdpst_nodes":                 float64(nodes),
		"race.shadow_cells":                float64(shadow),
		"repair.wall_s":                    repairWall.Seconds(),
		"repair.detect_s":                  detect.Seconds(),
		"repair.place_s":                   place.Seconds(),
		"repair.rewrite_s":                 rewrite.Seconds(),
		"repair.place_share":               place.Seconds() / repairWall.Seconds(),
		"repair.dp_states":                 float64(dpStates),
		"repair.dp_states_per_s":           float64(dpStates) / place.Seconds(),
		"repair.iterations":                float64(iterations),
		"repair.groups":                    float64(groups),
		"repair.inserted":                  float64(inserted),
		"repair.isolated":                  float64(isolated),
		"repair.degraded":                  float64(degraded),
		"cpl.analyze_s":                    cplT.Seconds(),
		"analysis.vet_s":                   vet.Seconds(),
		"analysis.candidates":              float64(candidates),
		"analysis.commute_verdicts":        float64(verdicts),
		"analysis.commute_confirmed_ratio": confirmedRatio,
		"analysis.commute_refuted":         float64(delta["analysis.commute_refuted"]),
		"adversary.verify_s":               advT.Seconds(),
		"adversary.schedules":              float64(schedules),
		"adversary.failures":               float64(failures),
		"adversary.yields":                 float64(delta["adversary.yields"]),
		"adversary.schedules_per_s":        float64(schedules) / advT.Seconds(),
	}
}

// raceLocs is the sorted distinct racing locations: the targets of the
// adversary's race-directed schedules, as the repair pipeline builds
// them.
func raceLocs(rs []*race.Race) []uint64 {
	seen := map[uint64]bool{}
	var locs []uint64
	for _, r := range rs {
		if !seen[r.Loc] {
			seen[r.Loc] = true
			locs = append(locs, r.Loc)
		}
	}
	sort.Slice(locs, func(i, j int) bool { return locs[i] < locs[j] })
	return locs
}
