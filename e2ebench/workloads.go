package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"finishrepair/internal/bench"
	"finishrepair/internal/progen"
	"finishrepair/tdr"
)

// input is one program of a workload, as the repair tool receives it.
type input struct {
	name string
	src  string
	// strip removes every finish before the repair (paper §7.1); example
	// files run as written.
	strip bool
	// expert is the expert-written source whose critical path the repair
	// must match (benchmarks only; empty otherwise).
	expert string
}

// workload is a named set of inputs plus the repair options they run
// with. Both are drawn from the workload seed and nothing else.
type workload struct {
	name string
	// cli documents the options as hjrepair flags.
	cli    string
	inputs func(seed int64) ([]input, error)
	opts   func(seed int64) tdr.RepairOptions
}

// progenPrograms is the size of the verify workload's seeded progen draw.
const progenPrograms = 50

// adversarySchedules is K of the verify workload's -adversary K.
const adversarySchedules = 16

var workloads = []workload{
	{
		name:   "placement",
		cli:    "-strategy auto -detector mrw -j 1",
		inputs: func(int64) ([]input, error) { return benchmarks("LUFact", "Sparse", "Spanning Tree") },
		opts:   func(int64) tdr.RepairOptions { return cliDefaults() },
	},
	{
		name: "detection",
		cli:  "-strategy auto -detector mrw -j 1",
		inputs: func(int64) ([]input, error) {
			return benchmarks("Mergesort", "SOR", "Mandelbrot", "Quicksort", "Series", "Crypt", "FannKuch", "Nqueens")
		},
		opts: func(int64) tdr.RepairOptions { return cliDefaults() },
	},
	{
		name:   "verify",
		cli:    "-strategy auto -vet -detector both -j 2 -adversary 16 -sched-seed <seed>",
		inputs: verifyInputs,
		opts: func(seed int64) tdr.RepairOptions {
			o := cliDefaults()
			o.Vet = true
			o.Engine = tdr.Both
			o.Workers = 2
			o.AdversarySchedules = adversarySchedules
			o.SchedSeed = seed
			return o
		},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// cliDefaults mirrors hjrepair with no flags: MRW ESP-Bags, -strategy
// auto, -j 1.
func cliDefaults() tdr.RepairOptions {
	return tdr.RepairOptions{Detector: tdr.MRW, Engine: tdr.ESPBags, Strategy: tdr.Auto, Workers: 1}
}

// benchmarks renders the named Table-1 programs at their repair size,
// to be stripped of every finish before the repair.
func benchmarks(names ...string) ([]input, error) {
	var out []input
	for _, n := range names {
		b := bench.Get(n)
		if b == nil {
			return nil, fmt.Errorf("no benchmark %q", n)
		}
		src := b.Src(b.RepairSize)
		out = append(out, input{name: n, src: src, strip: true, expert: src})
	}
	return out, nil
}

// verifyInputs is every bundled example as written, buggy_fib.hj, four
// stripped benchmarks, and progenPrograms stripped progen programs with
// the commutative-reduction shapes, drawn from the seed.
func verifyInputs(seed int64) ([]input, error) {
	files, err := filepath.Glob(filepath.Join("examples", "hj", "*.hj"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no examples/hj/*.hj: run from the repository root")
	}
	sort.Strings(files)
	files = append(files, filepath.Join("testdata", "buggy_fib.hj"))
	var out []input
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		out = append(out, input{name: filepath.Base(f), src: string(b)})
	}
	bs, err := benchmarks("Crypt", "Series", "FannKuch", "Nqueens")
	if err != nil {
		return nil, err
	}
	out = append(out, bs...)
	cfg := progen.Default()
	cfg.Commute = true
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < progenPrograms; i++ {
		s := rng.Int63()
		out = append(out, input{name: fmt.Sprintf("progen-%d", s), src: progen.Gen(s, cfg), strip: true})
	}
	return out, nil
}
