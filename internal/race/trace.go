package race

import (
	"encoding/binary"
	"fmt"
	"io"

	"finishrepair/internal/dpst"
	"finishrepair/internal/trace"
)

// The paper's tool writes the detected races to trace files which the
// repair passes then read back ("the time to repair is dominated by the
// time taken to read the trace files", §7.2). This codec mirrors that
// boundary in memory: WriteTrace serializes races, ReadTrace
// deserializes them against the S-DPST of the same execution. Only
// repair.Options.UseTraceFiles, which the frozen e2ebench layer pass
// sets, round-trips through it; the codec goes with that option at the
// next change to that benchmark.
//
// Version 2 of the record carries the access sites (block, statement,
// isolation bit per endpoint) that the isolated repair strategy needs;
// version 3 adds the per-endpoint isolated lock class in the
// formerly-reserved tail bytes.

const traceMagic = uint32(0x53445054) // "SDPT"

// raceTraceVersion is the current race-trace record version.
const raceTraceVersion = uint32(3)

// header layout (12 bytes): magic(4) version(4) record count(4).
const hdrLen = 12

// record layout (38 bytes): srcID(4) dstID(4) loc(8) kind(1) flags(1)
// srcBlock(4) srcStmt(4) dstBlock(4) dstStmt(4) srcClass(2) dstClass(2);
// flags bit 0 is SrcSite.Iso, bit 1 is DstSite.Iso.
const recLen = 38

// traceBatch is how many records WriteTrace encodes per Write and
// ReadTrace decodes per read. On the read side it also bounds what an
// untrusted header count can make ReadTrace allocate before the records
// behind it have actually arrived.
const traceBatch = 8192

// TraceSize is the encoded size of a trace of n races, for callers that
// size a buffer once.
func TraceSize(n int) int { return hdrLen + recLen*n }

// WriteTrace serializes races to w in the binary trace format.
func WriteTrace(w io.Writer, races []*Race) error {
	buf := make([]byte, hdrLen, min(TraceSize(len(races)), hdrLen+recLen*traceBatch))
	binary.LittleEndian.PutUint32(buf[0:4], traceMagic)
	binary.LittleEndian.PutUint32(buf[4:8], raceTraceVersion)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(len(races)))
	for _, r := range races {
		if len(buf)+recLen > cap(buf) {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
		rec := buf[len(buf) : len(buf)+recLen]
		buf = buf[:len(buf)+recLen]
		binary.LittleEndian.PutUint32(rec[0:4], uint32(r.Src.ID))
		binary.LittleEndian.PutUint32(rec[4:8], uint32(r.Dst.ID))
		binary.LittleEndian.PutUint64(rec[8:16], r.Loc)
		rec[16] = byte(r.Kind)
		var flags byte
		if r.SrcSite.Iso {
			flags |= 1
		}
		if r.DstSite.Iso {
			flags |= 2
		}
		rec[17] = flags
		binary.LittleEndian.PutUint32(rec[18:22], uint32(r.SrcSite.Block))
		binary.LittleEndian.PutUint32(rec[22:26], uint32(r.SrcSite.Stmt))
		binary.LittleEndian.PutUint32(rec[26:30], uint32(r.DstSite.Block))
		binary.LittleEndian.PutUint32(rec[30:34], uint32(r.DstSite.Stmt))
		binary.LittleEndian.PutUint16(rec[34:36], uint16(r.SrcSite.IsoClass))
		binary.LittleEndian.PutUint16(rec[36:38], uint16(r.DstSite.IsoClass))
	}
	_, err := w.Write(buf)
	return err
}

// ReadTrace deserializes a trace written by WriteTrace, resolving step
// IDs against tree. Records decode in batches into shared arenas, so the
// header's record count only claims memory as the records arrive.
func ReadTrace(r io.Reader, tree *dpst.Tree) ([]*Race, error) {
	var hdr [hdrLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("race trace: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != traceMagic {
		return nil, fmt.Errorf("race trace: bad magic")
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != raceTraceVersion {
		return nil, fmt.Errorf("race trace: unsupported version %d", v)
	}
	n := int(binary.LittleEndian.Uint32(hdr[8:12]))
	if n < 0 { // a count past MaxInt32 on a 32-bit platform
		return nil, fmt.Errorf("race trace: record count %d too large", binary.LittleEndian.Uint32(hdr[8:12]))
	}

	byID := make([]*dpst.Node, tree.IDBound())
	tree.Walk(func(nd *dpst.Node) { byID[nd.ID] = nd })
	node := func(id uint32) *dpst.Node {
		if uint64(id) < uint64(len(byID)) {
			return byID[id]
		}
		return nil
	}

	var arenas [][]Race
	buf := make([]byte, recLen*min(n, traceBatch))
	for done := 0; done < n; {
		k := min(n-done, traceBatch)
		if m, err := io.ReadFull(r, buf[:k*recLen]); err != nil {
			return nil, fmt.Errorf("race trace: truncated at record %d: %w", done+m/recLen, err)
		}
		arena := make([]Race, k)
		for j := range arena {
			rec := buf[j*recLen : (j+1)*recLen]
			src := node(binary.LittleEndian.Uint32(rec[0:4]))
			dst := node(binary.LittleEndian.Uint32(rec[4:8]))
			if src == nil || dst == nil {
				return nil, fmt.Errorf("race trace: record %d references unknown step", done+j)
			}
			flags := rec[17]
			arena[j] = Race{
				Src:  src,
				Dst:  dst,
				Loc:  binary.LittleEndian.Uint64(rec[8:16]),
				Kind: Kind(rec[16]),
				SrcSite: trace.Site{
					Block:    int32(binary.LittleEndian.Uint32(rec[18:22])),
					Stmt:     int32(binary.LittleEndian.Uint32(rec[22:26])),
					Iso:      flags&1 != 0,
					IsoClass: int32(binary.LittleEndian.Uint16(rec[34:36])),
				},
				DstSite: trace.Site{
					Block:    int32(binary.LittleEndian.Uint32(rec[26:30])),
					Stmt:     int32(binary.LittleEndian.Uint32(rec[30:34])),
					Iso:      flags&2 != 0,
					IsoClass: int32(binary.LittleEndian.Uint16(rec[36:38])),
				},
			}
		}
		arenas = append(arenas, arena)
		done += k
	}
	races := make([]*Race, 0, n)
	for _, a := range arenas {
		for j := range a {
			races = append(races, &a[j])
		}
	}
	return races, nil
}
