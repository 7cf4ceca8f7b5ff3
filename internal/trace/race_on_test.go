//go:build race

package trace_test

// raceEnabled reports a -race build, under which sync.Pool drops about
// a quarter of the items put into it on purpose.
const raceEnabled = true
