// Command e2ebench is the repository benchmark: it repairs every program
// of a named workload through the public tdr entry points (tdr.Load,
// Program.StripFinishes, Program.RepairCtx), checks every repaired
// program against independent references, and prints the end-to-end
// metrics. With -trace 1 it instead times the public calls into each
// layer and prints the per-layer metrics. See README.md in this
// directory for the workloads, the metrics and what each is expected to
// show.
//
// Usage, from the repository root:
//
//	go -C e2ebench build -o ../.bench_build/e2ebench . &&
//	  .bench_build/e2ebench -workload placement -seed 1 -seconds 15 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"

	"finishrepair/internal/obs"
	"finishrepair/tdr"
)

// setups is how many times a -trace 0 run sets up from scratch; setup_s
// is their median.
const setups = 3

// minPasses is the fewest timed passes a run makes, however short
// -seconds is.
const minPasses = 3

// maxFailureLines bounds the failure messages printed per run.
const maxFailureLines = 20

// reference is what a repaired program is checked against, computed
// without the repair.
type reference struct {
	// elide is the serial elision's output (interp.Elide).
	elide string
	// expertSpan is the expert-written program's critical path; 0 when
	// the input has no expert version.
	expertSpan int64
}

// verified records the first fully checked repair of one input: later
// passes must reproduce its repaired source byte for byte, so the
// re-parse, re-detection and span checks carry over by digest.
type verified struct {
	digest string
	span   int64
}

// state is one run: the workload's inputs, their references, and the
// failure tally every check feeds.
type state struct {
	w      workload
	seed   int64
	opts   tdr.RepairOptions
	inputs []input
	refs   []reference
	ok     []verified

	attempted, failed int
	failures          []string
}

func (s *state) fail(stage, name string, err error) {
	s.failed++
	if len(s.failures) < maxFailureLines {
		s.failures = append(s.failures, fmt.Sprintf("%s: %s: %v", stage, name, err))
	}
}

// pass is one repair of every input of the workload.
type pass struct {
	wall, cpu time.Duration
	alloc     uint64
	progs     []*tdr.Program
	reps      []*tdr.RepairReport
	errs      []error
}

// runPass repairs every input once, timing only the load, strip and
// repair calls. traced attaches the program's own obs tracer.
func runPass(inputs []input, opts tdr.RepairOptions, traced bool) pass {
	pr := pass{
		progs: make([]*tdr.Program, len(inputs)),
		reps:  make([]*tdr.RepairReport, len(inputs)),
		errs:  make([]error, len(inputs)),
	}
	var tr *obs.Tracer
	if traced {
		tr = obs.New()
	}
	// Two collections empty the sync.Pool caches too, so every pass
	// allocates from the same starting state.
	runtime.GC()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t0 := time.Now()
	for i, in := range inputs {
		p, err := tdr.LoadTraced(in.src, tr)
		if err != nil {
			pr.errs[i] = err
			continue
		}
		if in.strip {
			p.StripFinishes()
		}
		pr.progs[i] = p
		pr.reps[i], pr.errs[i] = p.RepairCtx(context.Background(), opts)
	}
	pr.wall = time.Since(t0)
	pr.cpu = cpuTime() - c0
	runtime.ReadMemStats(&m1)
	pr.alloc = m1.TotalAlloc - m0.TotalAlloc
	return pr
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

func digest(src string) string {
	h := sha256.Sum256([]byte(src))
	return hex.EncodeToString(h[:8])
}

// references computes each input's serial-elision output and, for
// benchmarks, the expert-written program's span.
func references(inputs []input) ([]reference, error) {
	refs := make([]reference, len(inputs))
	for i, in := range inputs {
		p, err := tdr.Load(in.src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", in.name, err)
		}
		p.StripFinishes()
		if refs[i].elide, err = p.RunSequential(); err != nil {
			return nil, fmt.Errorf("%s: serial elision: %w", in.name, err)
		}
		if in.expert == "" {
			continue
		}
		e, err := tdr.Load(in.expert)
		if err != nil {
			return nil, fmt.Errorf("%s expert: %w", in.name, err)
		}
		pl, err := e.CriticalPath()
		if err != nil {
			return nil, fmt.Errorf("%s expert: %w", in.name, err)
		}
		refs[i].expertSpan = pl.Span
	}
	return refs, nil
}

// check counts one repair as attempted and, if any check fails, as
// failed; label names the pass in failure messages.
func (s *state) check(label string, pr pass) {
	for i, in := range s.inputs {
		s.attempted++
		if err := s.checkOne(i, pr.progs[i], pr.reps[i], pr.errs[i]); err != nil {
			s.fail(label, in.name, err)
		}
	}
}

func (s *state) checkOne(i int, p *tdr.Program, rep *tdr.RepairReport, err error) error {
	if err != nil {
		return err
	}
	ref := s.refs[i]
	if rep.Output != ref.elide {
		return fmt.Errorf("repaired output %s differs from the serial elision's %s", clip(rep.Output), clip(ref.elide))
	}
	if k := s.opts.AdversarySchedules; k > 0 {
		a := rep.Adversary
		if a == nil || a.Schedules != k || a.Failures != 0 {
			return fmt.Errorf("adversary: want 0 of %d schedules diverged, got %+v", k, a)
		}
	}
	src := p.Source()
	d := digest(src)
	v := &s.ok[i]
	if v.digest != "" {
		if d != v.digest {
			return fmt.Errorf("repaired source digest %s differs from the first pass's %s", d, v.digest)
		}
		return nil
	}
	span, err := verifySource(src, ref)
	if err != nil {
		return err
	}
	*v = verified{digest: d, span: span}
	return nil
}

// verifySource re-parses a repaired source and checks that it detects
// race-free, that its depth-first output equals the serial elision's,
// and that its span equals the expert-written program's where there is
// one. It returns the span.
func verifySource(src string, ref reference) (int64, error) {
	p, err := tdr.Load(src)
	if err != nil {
		return 0, fmt.Errorf("repaired source does not re-parse: %w", err)
	}
	rr, err := p.Detect(tdr.MRW)
	if err != nil {
		return 0, fmt.Errorf("re-detection: %w", err)
	}
	if n := len(rr.Races); n != 0 {
		return 0, fmt.Errorf("repaired source still has %d race(s)", n)
	}
	if rr.Output != ref.elide {
		return 0, fmt.Errorf("re-detection output %s differs from the serial elision's %s", clip(rr.Output), clip(ref.elide))
	}
	pl, err := p.CriticalPath()
	if err != nil {
		return 0, fmt.Errorf("critical path: %w", err)
	}
	if ref.expertSpan != 0 && pl.Span != ref.expertSpan {
		return 0, fmt.Errorf("repaired span %d differs from the expert-written span %d", pl.Span, ref.expertSpan)
	}
	return pl.Span, nil
}

func clip(s string) string {
	if len(s) > 40 {
		return fmt.Sprintf("%q...", s[:40])
	}
	return fmt.Sprintf("%q", s)
}

// setup builds the inputs and references from the seed and runs the
// fully checked warm-up pass: everything before the first timed pass.
func (s *state) setup() error {
	inputs, err := s.w.inputs(s.seed)
	if err != nil {
		return err
	}
	refs, err := references(inputs)
	if err != nil {
		return err
	}
	s.inputs, s.refs = inputs, refs
	s.ok = make([]verified, len(inputs))
	s.check("warm-up", runPass(inputs, s.opts, false))
	return nil
}

// span is the sum of the verified repaired spans.
func (s *state) span() int64 {
	var n int64
	for _, v := range s.ok {
		n += v.span
	}
	return n
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: placement, detection or verify")
	seed := flag.Int64("seed", 1, "workload seed: draws the verify workload's progen programs and its schedule seed")
	seconds := flag.Int("seconds", 15, "how long to run timed passes after set-up")
	traceRun := flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from timed layer calls")
	flag.Parse()
	if flag.NArg() != 0 || *seconds < 1 || (*traceRun != 0 && *traceRun != 1) {
		fmt.Fprintln(os.Stderr, "usage: e2ebench -workload NAME [-seed N] [-seconds S] [-trace 0|1]")
		os.Exit(2)
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	s := &state{w: w, seed: *seed, opts: w.opts(*seed)}
	fmt.Printf("workload %s  seed %d  options %s  GOMAXPROCS %d\n", w.name, *seed, w.cli, runtime.GOMAXPROCS(0))

	var metrics map[string]metric
	if *traceRun == 1 {
		metrics, err = s.layerRun(time.Duration(*seconds) * time.Second)
	} else {
		metrics, err = s.endToEndRun(time.Duration(*seconds) * time.Second)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	for _, f := range s.failures {
		fmt.Println("FAIL", f)
	}
	failRatio := float64(s.failed) / float64(max(s.attempted, 1))
	fmt.Printf("fail_ratio %g (%d of %d program repairs failed a check)\n", failRatio, s.failed, s.attempted)
	printMetrics(metrics)
	out, err := json.Marshal(result{Correct: s.failed == 0 && s.attempted > 0, Attempted: s.attempted, Failed: s.failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// endToEndRun sets up `setups` times, then runs timed passes for d with
// tracing off.
func (s *state) endToEndRun(d time.Duration) (map[string]metric, error) {
	var setupS []float64
	var first []verified
	for i := 0; i < setups; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := s.setup(); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if first == nil {
			first = s.ok
			continue
		}
		for j, v := range s.ok {
			if v != first[j] {
				s.fail(fmt.Sprintf("setup %d", i+1), s.inputs[j].name, fmt.Errorf("repair %+v differs from setup 1's %+v", v, first[j]))
			}
		}
	}
	s.ok = first
	s.printInputs()

	var wall, cpu, alloc []float64
	deadline := time.Now().Add(d)
	for n := 0; n < minPasses || time.Now().Before(deadline); n++ {
		pr := runPass(s.inputs, s.opts, false)
		s.check(fmt.Sprintf("pass %d", n+1), pr)
		wall = append(wall, pr.wall.Seconds())
		cpu = append(cpu, pr.cpu.Seconds())
		alloc = append(alloc, float64(pr.alloc)/1e6)
	}
	fmt.Printf("repair_s over %d passes: median %.4f  min %.4f  max %.4f\n", len(wall), median(wall), slices.Min(wall), slices.Max(wall))
	fmt.Printf("repair_cpu_s over %d passes: median %.4f  min %.4f  max %.4f\n", len(cpu), median(cpu), slices.Min(cpu), slices.Max(cpu))
	fmt.Printf("setup_s over %d set-ups: %v\n", len(setupS), setupS)
	return map[string]metric{
		"repair_s":      {median(wall), "s"},
		"repair_cpu_s":  {median(cpu), "s"},
		"alloc_mb":      {median(alloc), "MB"},
		"peak_rss_mb":   {peakRSSMB(), "MB"},
		"setup_s":       {median(setupS), "s"},
		"repaired_span": {float64(s.span()), "work_units"},
	}, nil
}

// printInputs lists each input with its verified repair.
func (s *state) printInputs() {
	fmt.Printf("%d programs, repaired_span %d\n", len(s.inputs), s.span())
	for i, in := range s.inputs {
		fmt.Printf("  %-22s strip=%-5v span=%-8d expert=%-8d digest=%s\n", in.name, in.strip, s.ok[i].span, s.refs[i].expertSpan, s.ok[i].digest)
	}
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}
