package race

// resolvedReference is the two-pass dedupe that resolved() replaced,
// kept as the differential reference: resolve both endpoints of every
// raw report, key on (loc, source, sink, kind) in a map sized by a
// counting pass, and emit each key's first occurrence in raw order.
func resolvedReference(rc *recorder) []*Race {
	type raceKey struct {
		loc      uint64
		src, dst int32
		kind     Kind
	}
	seen := make(map[raceKey]int32, rc.n)
	for _, c := range rc.chunks {
		for i := range c {
			r := &c[i]
			seen[raceKey{loc: r.Loc, src: int32(r.Src.Resolve().ID), dst: int32(r.Dst.Resolve().ID), kind: r.Kind}] = -1
		}
	}
	arena := make([]Race, 0, len(seen))
	for _, c := range rc.chunks {
		for i := range c {
			r := &c[i]
			src, dst := r.Src.Resolve(), r.Dst.Resolve()
			k := raceKey{loc: r.Loc, src: int32(src.ID), dst: int32(dst.ID), kind: r.Kind}
			if seen[k] >= 0 {
				continue
			}
			seen[k] = int32(len(arena))
			arena = append(arena, Race{Src: src, Dst: dst, Loc: r.Loc, Kind: r.Kind, SrcSite: r.SrcSite, DstSite: r.DstSite})
		}
	}
	out := make([]*Race, len(arena))
	for i := range arena {
		out[i] = &arena[i]
	}
	return out
}
