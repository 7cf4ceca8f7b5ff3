package trace_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"finishrepair/internal/bench"
	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/race"
	"finishrepair/internal/trace"
)

// TestTreeReleaseReusesChunks replays stripped Mandelbrot (143k S-DPST
// nodes built, 47 kept) twice. After the first tree is released, the
// second replay draws its node arena from the recycled chunks, so it
// allocates at most a tenth of the first replay's bytes and builds the
// same tree.
func TestTreeReleaseReusesChunks(t *testing.T) {
	b := bench.Get("Mandelbrot")
	prog, err := parser.Parse(b.Src(b.RepairSize))
	if err != nil {
		t.Fatal(err)
	}
	ast.StripFinishes(prog)
	info, err := sem.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	_, tr, err := race.Capture(info, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A collection empties the chunk pool; keep it from running between
	// the release and the second replay.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	replay := func() (*trace.Result, uint64) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		rr, err := trace.Replay(tr, trace.ReplayOptions{Prog: info.Prog})
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		return rr, ms.TotalAlloc - before
	}
	first, cold := replay()
	want := describe(first.Tree)
	first.Tree.Release()
	second, warm := replay()
	t.Logf("replay bytes: %d cold, %d after release", cold, warm)
	// Under -race the pool discards about a quarter of the released
	// chunks, so the bound there is half, which still fails when nothing
	// is reused.
	pct := uint64(10)
	if raceEnabled {
		pct = 50
	}
	if warm*100 > cold*pct {
		t.Errorf("replay after release allocated %d bytes, want <= %d%% of the first replay's %d", warm, pct, cold)
	}
	if got := describe(second.Tree); got != want {
		t.Error("replay into recycled chunks built a different tree")
	}
	second.Tree.Release()
}
