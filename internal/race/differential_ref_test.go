package race

import (
	"fmt"
	"sort"

	"finishrepair/internal/dpst"
	"finishrepair/internal/trace"
)

// This file keeps the serial two-engine differential as the test-only
// independent-engines reference: two complete detectors, two shadow
// memories, and a race-set comparison after analysis. The production
// -detector both engine is Fused, whose results the tests check against
// this pair.

// Differential fans one replayed execution out to two engines and
// cross-checks that they report identical race sets. Races() returns
// the primary engine's result, so a differential run is a drop-in
// replacement for either backend; call Check after analysis to surface
// any disagreement.
type Differential struct {
	primary, secondary Engine
}

// NewDifferential pairs two engines for cross-checking.
func NewDifferential(primary, secondary Engine) *Differential {
	return &Differential{primary: primary, secondary: secondary}
}

// Name identifies the differential runner.
func (d *Differential) Name() string { return "both" }

// Read forwards to both engines.
func (d *Differential) Read(loc uint64, step *dpst.Node, site trace.Site) {
	d.primary.Read(loc, step, site)
	d.secondary.Read(loc, step, site)
}

// Write forwards to both engines.
func (d *Differential) Write(loc uint64, step *dpst.Node, site trace.Site) {
	d.primary.Write(loc, step, site)
	d.secondary.Write(loc, step, site)
}

// TaskStart forwards to both engines.
func (d *Differential) TaskStart(n *dpst.Node) {
	d.primary.TaskStart(n)
	d.secondary.TaskStart(n)
}

// TaskEnd forwards to both engines.
func (d *Differential) TaskEnd(n *dpst.Node) {
	d.primary.TaskEnd(n)
	d.secondary.TaskEnd(n)
}

// FinishStart forwards to both engines.
func (d *Differential) FinishStart(n *dpst.Node) {
	d.primary.FinishStart(n)
	d.secondary.FinishStart(n)
}

// FinishEnd forwards to both engines.
func (d *Differential) FinishEnd(n *dpst.Node) {
	d.primary.FinishEnd(n)
	d.secondary.FinishEnd(n)
}

// Races returns the primary engine's races.
func (d *Differential) Races() []*Race { return d.primary.Races() }

// ShadowCells reports the primary engine's shadow-memory size.
func (d *Differential) ShadowCells() int {
	if s, ok := d.primary.(ShadowSizer); ok {
		return s.ShadowCells()
	}
	return 0
}

// EngineShadowCells reports each backend's shadow-memory size, in
// [primary, secondary] order, so metrics can sample both engines instead
// of last-writer-wins.
func (d *Differential) EngineShadowCells() [2]int {
	var out [2]int
	if s, ok := d.primary.(ShadowSizer); ok {
		out[0] = s.ShadowCells()
	}
	if s, ok := d.secondary.(ShadowSizer); ok {
		out[1] = s.ShadowCells()
	}
	return out
}

// Presize forwards to both engines.
func (d *Differential) Presize(events int) {
	if p, ok := d.primary.(Presizer); ok {
		p.Presize(events)
	}
	if p, ok := d.secondary.(Presizer); ok {
		p.Presize(events)
	}
}

// Release forwards to both engines.
func (d *Differential) Release() {
	if r, ok := d.primary.(Releaser); ok {
		r.Release()
	}
	if r, ok := d.secondary.(Releaser); ok {
		r.Release()
	}
}

// raceSig is the identity under which race sets are compared: endpoint
// steps, location, access-pair kind, and the NS-LCA group the repair
// phase would place a finish for. Both engines see the same replayed
// tree, so node IDs are directly comparable.
type raceSig struct {
	src, dst int
	loc      uint64
	kind     Kind
	nslca    int
}

func signatures(races []*Race) map[raceSig]bool {
	m := make(map[raceSig]bool, len(races))
	for _, r := range races {
		sig := raceSig{src: r.Src.ID, dst: r.Dst.ID, loc: r.Loc, kind: r.Kind}
		if l := dpst.NSLCA(r.Src, r.Dst); l != nil {
			sig.nslca = l.ID
		}
		m[sig] = true
	}
	return m
}

// Check compares the two race sets (variable, access pair, NS-LCA
// group) and returns a *DisagreementError on any difference.
func (d *Differential) Check() error {
	pr, sr := d.primary.Races(), d.secondary.Races()
	ps, ss := signatures(pr), signatures(sr)
	var diffs []string
	for sig := range ps {
		if !ss[sig] {
			diffs = append(diffs, fmt.Sprintf("%s: step %d -> step %d @loc %d (nslca %d) [%s only]",
				sig.kind, sig.src, sig.dst, sig.loc, sig.nslca, d.primary.Name()))
		}
	}
	for sig := range ss {
		if !ps[sig] {
			diffs = append(diffs, fmt.Sprintf("%s: step %d -> step %d @loc %d (nslca %d) [%s only]",
				sig.kind, sig.src, sig.dst, sig.loc, sig.nslca, d.secondary.Name()))
		}
	}
	if len(diffs) == 0 {
		return nil
	}
	sort.Strings(diffs)
	return &DisagreementError{
		Engines: [2]string{d.primary.Name(), d.secondary.Name()},
		Counts:  [2]int{len(pr), len(sr)},
		Detail:  diffs[0],
	}
}
