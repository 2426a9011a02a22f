package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// TestReaderErrorTaxonomy cuts a valid trace at every byte boundary and
// checks the contract: a complete trace drains to exactly io.EOF; any
// truncation — in the header, between records, or mid-record — reports
// io.ErrUnexpectedEOF and never a bare (or wrapped) io.EOF.
func TestReaderErrorTaxonomy(t *testing.T) {
	rec := randomTrace(7, 42)
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	drain := func(data []byte) (events int, err error) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return 0, err
		}
		for {
			_, err := r.Next()
			if err != nil {
				return events, err
			}
			events++
		}
	}

	// Complete trace: all events, then exactly io.EOF (not just
	// errors.Is-EOF — replay loops compare with ==).
	n, err := drain(full)
	if n != len(rec.Events) || err != io.EOF {
		t.Fatalf("full trace: %d events, err %v; want %d events, io.EOF", n, err, len(rec.Events))
	}

	for cut := 0; cut < len(full); cut++ {
		n, err := drain(full[:cut])
		if err == nil {
			t.Fatalf("cut %d: drain succeeded on truncated trace", cut)
		}
		if cut < 16 {
			// Header truncation: magic (ReadFull) or count must already
			// report unexpected EOF.
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("cut %d (header): err %v, want ErrUnexpectedEOF", cut, err)
			}
			continue
		}
		if err == io.EOF {
			t.Fatalf("cut %d: bare io.EOF after %d events — truncation read as clean end", cut, n)
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut %d: err %v, want ErrUnexpectedEOF", cut, err)
		}
		if errors.Is(err, io.EOF) {
			t.Fatalf("cut %d: truncation error %v wraps io.EOF", cut, err)
		}
		if want := (cut - 16) / eventWireSize; n != want {
			t.Fatalf("cut %d: decoded %d whole events, want %d", cut, n, want)
		}
	}
}

// TestReadFromRejectsTruncation: the materializing wrapper must surface
// the truncation error rather than silently returning a short trace.
func TestReadFromRejectsTruncation(t *testing.T) {
	rec := randomTrace(4, 7)
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()-5]
	if _, err := ReadFrom(bytes.NewReader(data)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("ReadFrom(truncated) err = %v, want ErrUnexpectedEOF", err)
	}
}

// allocatedBytes reports the heap bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadFromUntrustedCount: a bare header declaring 2^28 events (8 GiB
// of cpu.Event) must fail as a truncation without pre-sizing for the
// declared count — the count is untrusted until its bytes arrive.
func TestReadFromUntrustedCount(t *testing.T) {
	for _, magic := range [][8]byte{traceMagic, traceMagicV2} {
		hdr := binary.LittleEndian.AppendUint64(magic[:], 1<<28)
		var err error
		n := allocatedBytes(func() { _, err = ReadFrom(bytes.NewReader(hdr)) })
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("%s: err = %v, want ErrTruncated", magic[:], err)
		}
		if n >= 1<<20 {
			t.Fatalf("%s: ReadFrom allocated %d bytes for a 16-byte input", magic[:], n)
		}
	}
}
