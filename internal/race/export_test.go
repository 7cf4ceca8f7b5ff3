package race

// ResolvedReference runs the reference dedupe over the raw report
// stream behind det's Races().
func ResolvedReference(det Detector) []*Race { return resolvedReference(recorderOf(det)) }

// Reresolve drops det's cached race set and resolves its raw report
// stream again, so benchmarks can time the dedupe on its own.
func Reresolve(det Detector) []*Race {
	rc := recorderOf(det)
	rc.cache = nil
	return rc.resolved()
}

// RawReports is the length of the raw report stream behind det's
// Races().
func RawReports(det Detector) int { return recorderOf(det).n }

// ShardCells is the shadow-cell count f's sharded scans contributed:
// zero unless AnalyzeParallel actually sharded the analysis.
func ShardCells(f *Fused) int { return f.shardCells }

// BagsElements is the length of b's union-find arrays.
func BagsElements(b *BagsOracle) int { return len(b.parent) }
