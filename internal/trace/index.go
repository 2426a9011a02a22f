package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
)

// Block index — what keeps segment-planned ingestion arithmetic on the
// compressed format. PIFTTRC1 needs no index at all (event i lives at
// HeaderSize + i*EventSize); PIFTTRC2 blocks are variable-length, so the
// planner instead walks the block headers once with O(#blocks) tiny
// ReadAts — no payload is read, checksummed, or decoded — and records
// (first event, count, byte offset, payload length) per block. With that
// table, planning a range and positioning a per-segment reader are again
// pure arithmetic: boundaries snap to block firsts and a reader's byte
// range is a lookup. The walk also validates the chain (contiguous first
// indexes, bounded counts and lengths, coverage of the declared total),
// so a spliced or reordered file fails at plan time with the same error
// taxonomy decode would produce.

type blockMeta struct {
	blockHeader
	off int64 // byte offset of the block header in the stream
}

// Index describes the physical layout of one serialized trace: its
// format, declared event count, and (for v2) the block table. It is the
// entry point for shard-owned ingestion — build it once per trace, then
// plan segments and open per-segment readers against the same io.ReaderAt.
type Index struct {
	format Format
	count  uint64
	blocks []blockMeta // nil for v1
}

// Format reports the trace's wire format.
func (idx *Index) Format() Format { return idx.format }

// Count returns the declared event count from the trace header.
func (idx *Index) Count() uint64 { return idx.count }

// Blocks reports how many blocks the trace has (0 for v1).
func (idx *Index) Blocks() int { return len(idx.blocks) }

// BlockInfo describes one v2 block's physical layout, for tools that
// reason about block boundaries (tracestat, tests).
type BlockInfo struct {
	First   uint64 // absolute index of the block's first event
	Offset  int64  // byte offset of the block header in the stream
	Count   uint32 // events in the block
	Payload uint32 // compressed payload bytes
}

// Block returns block i's layout; i must be in [0, Blocks()).
func (idx *Index) Block(i int) BlockInfo {
	b := idx.blocks[i]
	return BlockInfo{First: b.first, Offset: b.off, Count: b.count, Payload: b.clen}
}

// LoadIndex sniffs the trace header in ra and builds the Index. For a v1
// trace the header is all there is; for v2 it additionally walks and
// validates the block headers. The error taxonomy matches NewReader:
// ErrBadMagic, ErrTooLarge, ErrTruncated on a stream cut short,
// ErrCorrupt on an impossible block chain.
func LoadIndex(ra io.ReaderAt) (*Index, error) {
	f, count, err := readHeader(io.NewSectionReader(ra, 0, HeaderSize))
	if err != nil {
		return nil, err
	}
	idx := &Index{format: f, count: count}
	if f == FormatV1 {
		return idx, nil
	}
	off := int64(HeaderSize)
	for next := uint64(0); next < count; {
		var raw [blockHeaderSize]byte
		if _, err := ra.ReadAt(raw[:], off); err != nil {
			return nil, fmt.Errorf("trace: event %d: block header: %w", next, truncated(err))
		}
		h, err := parseBlockHeader(&raw, next, next, count)
		if err != nil {
			return nil, err
		}
		idx.blocks = append(idx.blocks, blockMeta{blockHeader: h, off: off})
		off += blockHeaderSize + int64(h.clen)
		next = h.first + uint64(h.count)
	}
	return idx, nil
}

// Segment is a half-open range of events [First, First+Count) of a
// serialized trace. Segments produced by Index.PlanRange are contiguous
// and non-overlapping: concatenated in order they cover the planned
// range exactly once.
type Segment struct {
	First uint64 // absolute index of the segment's first event
	Count uint64 // number of events in the segment
}

// End returns the absolute index one past the segment's last event.
func (s Segment) End() uint64 { return s.First + s.Count }

// PlanRange splits the event range [first, first+count) into at most
// `readers` contiguous segments, one per shard-owned reader; an empty
// range plans to nil. For v1, interior boundaries land on multiples of
// `batch` events from `first` (see planBatches). For v2, interior
// boundaries snap to block firsts (the smallest block start at or after
// the balanced ideal split), so every reader but the first starts on a
// block boundary and never decodes a discarded prefix; `batch` does not
// constrain v2 boundaries.
func (idx *Index) PlanRange(first, count uint64, readers, batch int) []Segment {
	if idx.format == FormatV1 {
		return planBatches(first, count, readers, batch)
	}
	if count == 0 {
		return nil
	}
	if readers < 1 {
		readers = 1
	}
	end := first + count
	segs := make([]Segment, 0, readers)
	at := first
	for i := 1; i < readers; i++ {
		ideal := first + count*uint64(i)/uint64(readers)
		j := sort.Search(len(idx.blocks), func(j int) bool { return idx.blocks[j].first >= ideal })
		var boundary uint64
		if j < len(idx.blocks) {
			boundary = idx.blocks[j].first
		} else {
			boundary = end
		}
		if boundary <= at {
			continue
		}
		if boundary >= end {
			break
		}
		segs = append(segs, Segment{First: at, Count: boundary - at})
		at = boundary
	}
	return append(segs, Segment{First: at, Count: end - at})
}

// planBatches is the v1 planner. PIFTTRC1 is fixed-stride, so a trace
// pre-splits by pure arithmetic: interior boundaries land on multiples of
// `batch` events from `first`, so every segment but the last holds whole
// batches — a reader never decodes a partial batch except at the end of
// the range. Counts are balanced to within one batch. Fewer than
// `readers` segments come back when the range has fewer batches than
// readers.
func planBatches(first, count uint64, readers, batch int) []Segment {
	if count == 0 {
		return nil
	}
	if readers < 1 {
		readers = 1
	}
	if batch < 1 {
		batch = 1
	}
	b := uint64(batch)
	batches := (count + b - 1) / b
	n := uint64(readers)
	if n > batches {
		n = batches
	}
	per, extra := batches/n, batches%n
	segs := make([]Segment, 0, n)
	at := first
	for i := uint64(0); i < n; i++ {
		take := per
		if i < extra {
			take++
		}
		c := take * b
		if at+c > first+count { // last segment: the trace's ragged tail
			c = first + count - at
		}
		segs = append(segs, Segment{First: at, Count: c})
		at += c
	}
	return segs
}

// SegmentReader opens a Reader over one planned segment of the trace in
// ra. The reader is positioned at the segment's first event and reports
// absolute positions: Offset() starts at seg.First, event indices in
// errors are absolute, and io.EOF arrives exactly at seg.End() — so
// per-segment readers compose with checkpoint offsets and fault reports
// exactly like a whole-trace Reader that was Skip()ed to seg.First. A v1
// reader's section is the segment's records. A v2 reader's section spans
// the block containing seg.First through the block containing the
// segment's last event; a segment starting mid-block decodes that block
// and discards the prefix, one ending mid-block stops at its logical end.
// A segment beyond the physical end of ra surfaces as a truncation at the
// first short read.
func (idx *Index) SegmentReader(ra io.ReaderAt, seg Segment) *Reader {
	r := &Reader{v2: idx.format == FormatV2, count: seg.End(), read: seg.First, total: idx.count}
	var off, n int64
	switch {
	case !r.v2:
		off, n = HeaderSize+int64(seg.First)*EventSize, int64(seg.Count)*EventSize
	case seg.Count > 0:
		fb, lb := idx.blockOf(seg.First), idx.blockOf(seg.End()-1)
		off, n = fb.off, lb.off+blockHeaderSize+int64(lb.clen)-fb.off
		r.nextBlock = fb.first
	}
	r.br = bufio.NewReader(io.NewSectionReader(ra, off, n))
	return r
}

// blockOf returns the block holding event i.
func (idx *Index) blockOf(i uint64) blockMeta {
	return idx.blocks[sort.Search(len(idx.blocks), func(j int) bool { return idx.blocks[j].first > i })-1]
}
