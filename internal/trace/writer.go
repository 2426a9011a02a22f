package trace

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/cpu"
)

// writer streams a trace of a known event count in either wire format —
// the one encoder behind WriteTo, WriteToFormat and Transcode. Events
// arrive as slices and leave in frames of block events: block PIFTTRC1
// records, or one self-contained PIFTTRC2 block. Each frame is encoded
// into buf and written with one Write, the 16-byte header riding in front
// of the first, so the scratch (buf, pend, the v2 encoder state) is sized
// by the block and never by the trace. The count lives in the header, so
// appending past it, or closing short of it, is an error.
type writer struct {
	w        io.Writer
	format   Format
	total    uint64      // event count the header declares
	appended uint64      // events accepted so far
	framed   uint64      // events already encoded: the next block's first index
	block    int         // events per frame
	pend     []cpu.Event // a partial frame waiting for more events
	buf      []byte      // encoded bytes not yet written
	sc       encScratch  // v2 block encoder state
	n        int64       // wire bytes written
	err      error       // first failure, sticky
}

// newWriter starts a stream of exactly total events in format f on w,
// framing block events at a time.
func newWriter(w io.Writer, f Format, total uint64, block int) (*writer, error) {
	tw := &writer{w: w, format: f, total: total, block: block}
	switch f {
	case FormatV1:
		tw.buf = append(tw.buf, traceMagic[:]...)
	case FormatV2:
		tw.buf = append(tw.buf, traceMagicV2[:]...)
		tw.sc.dict = make(map[uint32]uint64)
	default:
		return nil, fmt.Errorf("trace: unknown wire format %v", f)
	}
	tw.buf = binary.LittleEndian.AppendUint64(tw.buf, total)
	return tw, nil
}

// append adds evs to the stream and writes every frame they complete.
// Whole frames are encoded straight from evs; only a ragged remainder is
// copied into pend.
func (tw *writer) append(evs []cpu.Event) error {
	if tw.err == nil && uint64(len(evs)) > tw.total-tw.appended {
		tw.err = fmt.Errorf("trace: appending %d events after %d of %d declared", len(evs), tw.appended, tw.total)
	}
	if tw.err != nil {
		return tw.err
	}
	tw.appended += uint64(len(evs))
	for len(evs) > 0 && tw.err == nil {
		if len(tw.pend) == 0 && len(evs) >= tw.block {
			tw.err = tw.frame(evs[:tw.block])
			evs = evs[tw.block:]
			continue
		}
		k := min(tw.block-len(tw.pend), len(evs))
		tw.pend = append(tw.pend, evs[:k]...)
		evs = evs[k:]
		if len(tw.pend) == tw.block {
			tw.err = tw.frame(tw.pend)
			tw.pend = tw.pend[:0]
		}
	}
	return tw.err
}

// frame encodes evs behind whatever buf still holds and writes it all.
func (tw *writer) frame(evs []cpu.Event) error {
	if err := tw.encode(evs); err != nil {
		return err
	}
	n, err := tw.w.Write(tw.buf)
	tw.n += int64(n)
	tw.buf = tw.buf[:0]
	return err
}

func (tw *writer) encode(evs []cpu.Event) error {
	if len(evs) == 0 {
		return nil
	}
	if tw.format == FormatV1 {
		tw.buf = appendRecordsV1(tw.buf, evs)
	} else {
		var err error
		if tw.buf, err = appendBlock(tw.buf, tw.framed, evs, &tw.sc); err != nil {
			return err
		}
	}
	tw.framed += uint64(len(evs))
	return nil
}

// close writes the final partial frame — or, for an empty trace, the bare
// header.
func (tw *writer) close() error {
	if tw.err == nil && tw.appended != tw.total {
		tw.err = fmt.Errorf("trace: stream closed after %d of %d declared events", tw.appended, tw.total)
	}
	if tw.err == nil && (len(tw.pend) > 0 || len(tw.buf) > 0) {
		tw.err = tw.frame(tw.pend)
	}
	return tw.err
}
