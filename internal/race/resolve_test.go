package race_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"finishrepair/internal/bench"
	"finishrepair/internal/dpst"
	"finishrepair/internal/guard"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/progen"
	"finishrepair/internal/race"
	"finishrepair/internal/repair"
	"finishrepair/internal/trace"
)

// sameRaces reports the first difference between two race lists in
// order, endpoints, kind, location and sites, or "" when identical.
func sameRaces(got, want []*race.Race) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d races, want %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.Src != w.Src || g.Dst != w.Dst || g.Loc != w.Loc || g.Kind != w.Kind ||
			g.SrcSite != w.SrcSite || g.DstSite != w.DstSite {
			return fmt.Sprintf("race %d: %v %+v %+v, want %v %+v %+v", i, g, g.SrcSite, g.DstSite, w, w.SrcSite, w.DstSite)
		}
	}
	return ""
}

// checkResolved compares det's race set against the reference dedupe of
// the same raw stream, then round-trips it through the race-trace codec
// against tree. It returns the race set.
func checkResolved(t *testing.T, name string, det race.Detector, tree *dpst.Tree) []*race.Race {
	t.Helper()
	want := race.ResolvedReference(det)
	got := det.Races()
	if d := sameRaces(got, want); d != "" {
		t.Fatalf("%s: resolved differs from reference (%d raw reports): %s", name, race.RawReports(det), d)
	}
	var buf bytes.Buffer
	if err := race.WriteTrace(&buf, got); err != nil {
		t.Fatalf("%s: write trace: %v", name, err)
	}
	if buf.Len() != race.TraceSize(len(got)) {
		t.Fatalf("%s: trace is %d bytes, TraceSize says %d", name, buf.Len(), race.TraceSize(len(got)))
	}
	back, err := race.ReadTrace(&buf, tree)
	if err != nil {
		t.Fatalf("%s: read trace: %v", name, err)
	}
	if d := sameRaces(back, got); d != "" {
		t.Fatalf("%s: trace round trip: %s", name, d)
	}
	return got
}

// TestResolvedMatchesReference pins the one-pass resolve and dedupe to
// the two-pass map reference on every benchmark under both variants and
// every repair round, on the sharded fused path at several shard counts,
// and on the fuzz corpus and progen programs (with and without step
// collapsing). resolved() also asserts the sink-order invariant it
// relies on, so any input that broke it would fail here.
func TestResolvedMatchesReference(t *testing.T) {
	t.Run("benchmark rounds", func(t *testing.T) {
		for _, b := range bench.All() {
			for _, v := range []race.Variant{race.VariantMRW, race.VariantSRW} {
				prog := parser.MustParse(b.Src(b.RepairSize))
				ast.StripFinishes(prog)
				for round := 0; ; round++ {
					if round == 10 {
						t.Fatalf("%s %s: still racy after %d rounds", b.Name, v, round)
					}
					info, err := sem.Check(prog)
					if err != nil {
						t.Fatalf("%s %s round %d: %v", b.Name, v, round, err)
					}
					res, det, err := race.Detect(info, v, race.NewBagsOracle())
					if err != nil {
						t.Fatalf("%s %s round %d: %v", b.Name, v, round, err)
					}
					name := fmt.Sprintf("%s %s round %d", b.Name, v, round)
					if len(checkResolved(t, name, det, res.Tree)) == 0 {
						break
					}
					// One repair round on the same program: it inserts
					// this round's finishes and leaves the rest racy.
					_, err = repair.Repair(prog, repair.Options{Variant: v, MaxIterations: 1})
					var maxErr *repair.MaxIterationsError
					if err != nil && !errors.As(err, &maxErr) {
						t.Fatalf("%s: repair: %v", name, err)
					}
				}
			}
		}
	})
	t.Run("sharded fused", func(t *testing.T) {
		for _, b := range bench.All() {
			prog := parser.MustParse(b.Src(b.RepairSize))
			ast.StripFinishes(prog)
			info := sem.MustCheck(prog)
			_, tr, err := race.Capture(info, nil)
			if err != nil {
				t.Fatalf("%s: capture: %v", b.Name, err)
			}
			for _, v := range []race.Variant{race.VariantMRW, race.VariantSRW} {
				var serial []*race.Race
				for _, w := range []int{1, 2, 8} {
					f := race.NewFused(v)
					rr, err := race.AnalyzeSharded(tr, info.Prog, nil, f, nil, false, w)
					if err != nil {
						t.Fatalf("%s %s W=%d: %v", b.Name, v, w, err)
					}
					name := fmt.Sprintf("%s %s W=%d", b.Name, v, w)
					got := checkResolved(t, name, f, rr.Tree)
					if serial == nil {
						serial = got
						continue
					}
					if len(got) != len(serial) {
						t.Fatalf("%s: %d races, serial scan %d", name, len(got), len(serial))
					}
					for i := range got {
						g, s := got[i], serial[i]
						if g.Src.ID != s.Src.ID || g.Dst.ID != s.Dst.ID || g.Loc != s.Loc || g.Kind != s.Kind ||
							g.SrcSite != s.SrcSite || g.DstSite != s.DstSite {
							t.Fatalf("%s: race %d is %v, serial scan %v", name, i, g, s)
						}
					}
				}
			}
		}
	})
	small := func(t *testing.T, name, src string) {
		prog, err := parser.Parse(src)
		if err != nil {
			return
		}
		ast.StripFinishes(prog)
		info, err := sem.Check(prog)
		if err != nil {
			return
		}
		m := guard.NewMeter(context.Background(), guard.Budget{OpLimit: 2_000_000})
		_, tr, err := race.Capture(info, m)
		if err != nil {
			return // op budget: corpus seeds may loop forever
		}
		for _, v := range []race.Variant{race.VariantMRW, race.VariantSRW} {
			for _, noCollapse := range []bool{false, true} {
				det := race.New(v, race.NewBagsOracle())
				rr, err := race.Analyze(tr, info.Prog, nil, det, nil, noCollapse)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				checkResolved(t, fmt.Sprintf("%s %s noCollapse=%v", name, v, noCollapse), det, rr.Tree)
			}
		}
	}
	t.Run("fuzz corpus", func(t *testing.T) {
		for name, src := range fuzzCorpusSeeds(t) {
			small(t, name, src)
		}
	})
	t.Run("progen", func(t *testing.T) {
		for seed := int64(0); seed < 40; seed++ {
			small(t, fmt.Sprintf("progen seed %d", seed), progen.Gen(seed, progen.Default()))
		}
	})
}

// TestResolvedRejectsOutOfOrderSinks feeds a detector accesses whose
// sinks step backwards, which replay never does, and checks that the
// dedupe refuses the stream instead of returning duplicates.
func TestResolvedRejectsOutOfOrderSinks(t *testing.T) {
	tree := dpst.NewTree()
	var steps []*dpst.Node
	for i := 0; i < 3; i++ {
		a := tree.NewChild(tree.Root, dpst.Async, dpst.NotScope, "async")
		steps = append(steps, tree.NewChild(a, dpst.Step, dpst.NotScope, ""))
	}
	det := race.New(race.VariantMRW, race.NewDPSTOracle())
	det.Write(1, steps[0], trace.Site{})
	det.Write(1, steps[2], trace.Site{})
	det.Write(1, steps[1], trace.Site{})
	defer func() {
		if recover() == nil {
			t.Fatal("Races accepted a sink stream that steps backwards")
		}
	}()
	det.Races()
}

// BenchmarkResolveMergesort times the resolve-and-dedupe pass alone on
// the raw report stream of the stripped Mergesort's first detection,
// against the two-pass reference it replaced.
func BenchmarkResolveMergesort(b *testing.B) {
	mb := bench.Get("Mergesort")
	prog := parser.MustParse(mb.Src(mb.RepairSize))
	ast.StripFinishes(prog)
	_, det, err := race.Detect(sem.MustCheck(prog), race.VariantMRW, race.NewBagsOracle())
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		resolve func(race.Detector) []*race.Race
	}{{"onepass", race.Reresolve}, {"reference", race.ResolvedReference}} {
		b.Run(c.name, func(b *testing.B) {
			var n int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n = len(c.resolve(det))
			}
			b.ReportMetric(float64(race.RawReports(det)), "raw_reports/op")
			b.ReportMetric(float64(n), "races/op")
		})
	}
}
