package race_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"finishrepair/internal/bench"
	"finishrepair/internal/dpst"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/progen"
	"finishrepair/internal/race"
)

func raceSet(t *testing.T, src string, v race.Variant, o race.Oracle) map[string]bool {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	info, err := sem.Check(prog)
	if err != nil {
		t.Fatalf("check: %v\n%s", err, src)
	}
	_, det, err := race.Detect(info, v, o)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, src)
	}
	set := make(map[string]bool)
	for _, r := range det.Races() {
		set[fmt.Sprintf("%d>%d@%d/%v", r.Src.ID, r.Dst.ID, r.Loc, r.Kind)] = true
	}
	return set
}

// Property: the ESP-Bags oracle and the S-DPST Theorem-1 oracle decide
// the same ordering relation, so both MRW detectors report identical
// race sets on arbitrary structured programs.
func TestOraclesAgreeOnRandomPrograms(t *testing.T) {
	cfg := progen.Default()
	for seed := int64(0); seed < 120; seed++ {
		src := progen.Gen(seed, cfg)
		bags := raceSet(t, src, race.VariantMRW, race.NewBagsOracle())
		dpstSet := raceSet(t, src, race.VariantMRW, race.NewDPSTOracle())
		if len(bags) != len(dpstSet) {
			t.Fatalf("seed %d: bags found %d races, dpst %d\n%s", seed, len(bags), len(dpstSet), src)
		}
		for k := range bags {
			if !dpstSet[k] {
				t.Fatalf("seed %d: race %s found by bags but not dpst\n%s", seed, k, src)
			}
		}
	}
}

// Property: every race SRW reports is also reported by MRW (SRW keeps a
// subset of the access history).
func TestSRWSubsetOfMRW(t *testing.T) {
	cfg := progen.Default()
	for seed := int64(100); seed < 200; seed++ {
		src := progen.Gen(seed, cfg)
		srw := raceSet(t, src, race.VariantSRW, race.NewBagsOracle())
		mrw := raceSet(t, src, race.VariantMRW, race.NewBagsOracle())
		for k := range srw {
			if !mrw[k] {
				t.Fatalf("seed %d: SRW race %s missing from MRW\n%s", seed, k, src)
			}
		}
		// And SRW is empty iff MRW is: the detectors agree on race
		// freedom (the ESP-Bags soundness/completeness guarantee).
		if (len(srw) == 0) != (len(mrw) == 0) {
			t.Fatalf("seed %d: SRW=%d MRW=%d disagree on race freedom", seed, len(srw), len(mrw))
		}
	}
}

// Property: programs whose asyncs are all directly wrapped in finishes
// are race-free (each task joins before the next statement runs).
func TestFullySynchronizedIsRaceFree(t *testing.T) {
	src := `
var g = make([]int, 4);
func main() {
    finish { async { g[0] = 1; } }
    finish { async { g[0] = g[0] + 1; } }
    finish {
        async { g[1] = 5; }
        async { g[2] = 6; }
    }
    println(g[0], g[1], g[2]);
}
`
	for _, mk := range []race.Oracle{race.NewBagsOracle(), race.NewDPSTOracle()} {
		if n := len(raceSet(t, src, race.VariantMRW, mk)); n != 0 {
			t.Errorf("expected race freedom, got %d races", n)
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	src := progen.Gen(7, progen.Default())
	prog := parser.MustParse(src)
	info := sem.MustCheck(prog)
	res, det, err := race.Detect(info, race.VariantMRW, race.NewBagsOracle())
	if err != nil {
		t.Fatal(err)
	}
	races := det.Races()
	var buf bytes.Buffer
	if err := race.WriteTrace(&buf, races); err != nil {
		t.Fatal(err)
	}
	got, err := race.ReadTrace(&buf, res.Tree)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(races) {
		t.Fatalf("round trip: %d races, want %d", len(got), len(races))
	}
	for i := range races {
		if got[i].Src != races[i].Src || got[i].Dst != races[i].Dst ||
			got[i].Loc != races[i].Loc || got[i].Kind != races[i].Kind {
			t.Fatalf("race %d mismatch: %v vs %v", i, got[i], races[i])
		}
	}
}

func TestTraceRejectsGarbage(t *testing.T) {
	tree := dpst.NewTree()
	if _, err := race.ReadTrace(bytes.NewReader([]byte("nonsense....")), tree); err == nil {
		t.Error("expected error for bad magic")
	}
	var buf bytes.Buffer
	if err := race.WriteTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	// Truncate a valid header promising one record.
	b := buf.Bytes()
	b[4] = 1
	if _, err := race.ReadTrace(bytes.NewReader(b), tree); err == nil {
		t.Error("expected error for truncated trace")
	}
	// A header promising 0xFFFFFFF0 records with none behind it must
	// fail as truncated, not try to allocate them up front.
	b = bytes.Clone(buf.Bytes())
	binary.LittleEndian.PutUint32(b[8:12], 0xFFFFFFF0)
	if _, err := race.ReadTrace(bytes.NewReader(b), tree); err == nil {
		t.Error("expected error for oversized record count")
	}
}

// FuzzReadTrace feeds ReadTrace arbitrary bytes against the S-DPST of a
// real Mergesort detection. Decoding must never panic or exhaust memory,
// and whatever it accepts must re-encode to the bytes it read (flag
// bits beyond the two isolation bits are not kept).
func FuzzReadTrace(f *testing.F) {
	mb := bench.Get("Mergesort")
	prog := parser.MustParse(mb.Src(64))
	ast.StripFinishes(prog)
	res, det, err := race.Detect(sem.MustCheck(prog), race.VariantMRW, race.NewBagsOracle())
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := race.WriteTrace(&buf, det.Races()); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:12])
	oversized := bytes.Clone(valid[:12])
	binary.LittleEndian.PutUint32(oversized[8:12], 0xFFFFFFF0)
	f.Add(oversized)
	f.Fuzz(func(t *testing.T, data []byte) {
		races, err := race.ReadTrace(bytes.NewReader(data), res.Tree)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := race.WriteTrace(&out, races); err != nil {
			t.Fatal(err)
		}
		want := bytes.Clone(data[:race.TraceSize(len(races))])
		hdr, rec := race.TraceSize(0), race.TraceSize(1)-race.TraceSize(0)
		for i := hdr + 17; i < len(want); i += rec { // the flags byte
			want[i] &= 3
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("re-encoding %d races differs from the input", len(races))
		}
	})
}

// The Figure 7 example: three asyncs reading/writing x; MRW reports both
// R->W races, SRW only one (paper §4.1).
func TestFig7MultipleReaders(t *testing.T) {
	src := `
var x = 0;
var sink = 0;
func main() {
    async { sink = x; }     // A1
    async { sink = x + 0; } // A2  (distinct sink write location is fine)
    async { x = 3; }        // A3
    println(x);
}
`
	// Count only races on x's location involving the A3 write.
	prog := parser.MustParse(src)
	info := sem.MustCheck(prog)
	_, mrwDet, err := race.Detect(info, race.VariantMRW, race.NewBagsOracle())
	if err != nil {
		t.Fatal(err)
	}
	prog2 := parser.MustParse(src)
	info2 := sem.MustCheck(prog2)
	_, srwDet, err := race.Detect(info2, race.VariantSRW, race.NewBagsOracle())
	if err != nil {
		t.Fatal(err)
	}
	countRW := func(rs []*race.Race) int {
		n := 0
		for _, r := range rs {
			if r.Kind == race.ReadWrite {
				n++
			}
		}
		return n
	}
	if got := countRW(mrwDet.Races()); got < 2 {
		t.Errorf("MRW reported %d R->W races, want >= 2 (both readers)", got)
	}
	if got := countRW(srwDet.Races()); got != 1 {
		t.Errorf("SRW reported %d R->W races, want exactly 1 (single reader slot)", got)
	}
}
