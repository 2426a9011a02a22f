package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"repro/internal/cpu"
)

// Binary trace format — the stand-in for the gem5 trace files the paper's
// authors fed to "the PIFT analysis code". Layout (little-endian):
//
//	magic   [8]byte  "PIFTTRC1"
//	count   uint64
//	events  count × { kind u8, pid u32, seq u64, start u32, end u32, tag i32 }
//
// Traces round-trip exactly; ReadFrom validates the magic and bounds.

var traceMagic = [8]byte{'P', 'I', 'F', 'T', 'T', 'R', 'C', '1'}

// eventWireSize is the per-event record size.
const eventWireSize = 1 + 4 + 8 + 4 + 4 + 4

// HeaderSize and EventSize expose the wire layout for offset arithmetic:
// event i of a serialized trace begins at byte HeaderSize + i*EventSize.
// Checkpoint/resume tooling and fault injectors use these to map an event
// index to a byte position without decoding.
const (
	HeaderSize = 8 + 8 // magic + declared count
	EventSize  = eventWireSize
)

// maxEvents is the sanity cap on a header's declared event count.
const maxEvents = 1 << 31

// readHint caps how many events ReadFrom pre-sizes for: the header's
// count is untrusted until the bytes behind it arrive.
const readHint = 1 << 12

// readHeader reads and checks the 16-byte header both wire formats
// share: the magic names the format, and the declared count must pass
// the sanity cap before anything sizes a buffer from it. NewReader and
// LoadIndex both start here, so they classify a bad header identically.
func readHeader(r io.Reader) (Format, uint64, error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:8]); err != nil {
		// There is no such thing as a valid empty trace: even zero events
		// serialize to a 16-byte header, so running dry here — including on
		// a zero-byte stream — is a truncation, not a clean end.
		return 0, 0, fmt.Errorf("trace: reading magic: %w", truncated(err))
	}
	var f Format
	switch [8]byte(hdr[:8]) {
	case traceMagic:
		f = FormatV1
	case traceMagicV2:
		f = FormatV2
	default:
		return 0, 0, fmt.Errorf("trace: %w: bad magic %q", ErrBadMagic, hdr[:8])
	}
	if _, err := io.ReadFull(r, hdr[8:]); err != nil {
		// The magic was present, so a missing count is a truncated
		// header, not a clean end of anything.
		return 0, 0, fmt.Errorf("trace: reading count: %w", truncated(err))
	}
	count := binary.LittleEndian.Uint64(hdr[8:])
	if count > maxEvents {
		return 0, 0, fmt.Errorf("trace: %w: %d", ErrTooLarge, count)
	}
	return f, count, nil
}

// appendRecordsV1 appends evs to dst as fixed-stride PIFTTRC1 records.
func appendRecordsV1(dst []byte, evs []cpu.Event) []byte {
	at := len(dst)
	dst = slices.Grow(dst, len(evs)*eventWireSize)[:at+len(evs)*eventWireSize]
	for i, ev := range evs {
		rec := dst[at+i*eventWireSize:][:eventWireSize]
		rec[0] = byte(ev.Kind)
		binary.LittleEndian.PutUint32(rec[1:], ev.PID)
		binary.LittleEndian.PutUint64(rec[5:], ev.Seq)
		binary.LittleEndian.PutUint32(rec[13:], ev.Range.Start)
		binary.LittleEndian.PutUint32(rec[17:], ev.Range.End)
		binary.LittleEndian.PutUint32(rec[21:], uint32(int32(ev.Tag)))
	}
	return dst
}

// WriteTo serializes the recorded trace as PIFTTRC1. It implements
// io.WriterTo.
func (r *Recorder) WriteTo(w io.Writer) (int64, error) {
	return r.WriteToFormat(w, FormatV1)
}

// WriteToFormat serializes the recorded trace in the chosen wire format;
// WriteToFormat(w, FormatV1) is exactly WriteTo.
func (r *Recorder) WriteToFormat(w io.Writer, f Format) (int64, error) {
	tw, err := newWriter(w, f, uint64(len(r.Events)), DefaultBlockEvents)
	if err != nil {
		return 0, err
	}
	if err = tw.append(r.Events); err == nil {
		err = tw.close()
	}
	return tw.n, err
}

// Transcode re-encodes the trace stream in src into dst using the target
// format, streaming block by block — it never materializes the full
// event slice. The source format is sniffed from the magic, so both
// v1→v2 and v2→v1 (and identity) round trips work. Returns the event
// count transcoded.
func Transcode(dst io.Writer, src io.Reader, f Format) (uint64, error) {
	r, err := NewReader(src)
	if err != nil {
		return 0, err
	}
	tw, err := newWriter(dst, f, r.Len(), DefaultBlockEvents)
	if err != nil {
		return 0, err
	}
	buf := make([]cpu.Event, DefaultBlockEvents)
	var done uint64
	for {
		n, rerr := r.NextBatch(buf)
		if err := tw.append(buf[:n]); err != nil {
			return done, err
		}
		done += uint64(n)
		if rerr == io.EOF {
			return done, tw.close()
		}
		if rerr != nil {
			return done, rerr
		}
	}
}

// ReadFrom deserializes a trace written by WriteTo, materializing the full
// event slice. It is a thin wrapper over the streaming Reader; pipelines
// that should not hold whole traces in memory use NewReader directly.
func ReadFrom(r io.Reader) (*Recorder, error) {
	sr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	out := NewRecorder(int(min(sr.Len(), readHint)))
	for {
		ev, err := sr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out.Events = append(out.Events, ev)
	}
}
