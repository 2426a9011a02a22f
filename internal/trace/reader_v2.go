package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/cpu"
)

// The PIFTTRC2 decode path. A v2 Reader decodes one block at a time into
// a reused scratch slice (d.pending) and serves NextBatch out of it,
// so after the first block grows the scratch the steady state allocates
// nothing — the same contract the v1 batch path has. Because blocks are
// self-contained, a reader positioned mid-block (a segment reader, or a
// resume Skip landing inside a block) decodes its containing block and
// discards the prefix; the extra work is bounded by one block per
// segment boundary.

// blockHeader is one PIFTTRC2 block's framing as read off the wire.
type blockHeader struct {
	first uint64 // absolute index of the block's first event
	count uint32 // events in the block
	clen  uint32 // payload bytes
	crc   uint32 // CRC-32C of the payload
}

// parseBlockHeader decodes one block header and checks it against the
// chain: the block must start exactly at event next, end within the
// declared total, and claim a bounded payload. Contiguity is what turns
// any reordered, duplicated, or spliced block into ErrCorrupt instead of
// silently misattributed events. at is the event index errors report.
// Reader and LoadIndex both validate through here.
func parseBlockHeader(raw *[blockHeaderSize]byte, at, next, total uint64) (blockHeader, error) {
	h := blockHeader{
		first: binary.LittleEndian.Uint64(raw[0:]),
		count: binary.LittleEndian.Uint32(raw[8:]),
		clen:  binary.LittleEndian.Uint32(raw[12:]),
		crc:   binary.LittleEndian.Uint32(raw[16:]),
	}
	if h.first != next {
		return h, fmt.Errorf("trace: event %d: %w: block claims first event %d, want %d", at, ErrCorrupt, h.first, next)
	}
	if h.count == 0 || h.count > maxBlockEvents || h.first+uint64(h.count) > total {
		return h, fmt.Errorf("trace: event %d: %w: block claims %d events at %d of %d", at, ErrCorrupt, h.count, h.first, total)
	}
	if h.clen > maxBlockBytes {
		return h, fmt.Errorf("trace: event %d: %w: block claims %d payload bytes", at, ErrTooLarge, h.clen)
	}
	return h, nil
}

// readBlockHeader reads and validates the next block header.
func (d *Reader) readBlockHeader() (blockHeader, error) {
	var raw [blockHeaderSize]byte
	if _, err := io.ReadFull(d.br, raw[:]); err != nil {
		// The file header declared more events, so running dry between
		// blocks or inside a block header is a truncation.
		return blockHeader{}, fmt.Errorf("trace: event %d: block header: %w", d.read, truncated(err))
	}
	return parseBlockHeader(&raw, d.read, d.nextBlock, d.total)
}

// loadBlock reads, checksums, and decodes one block's payload into
// d.pending, leaving the cursor on the event the stream stands at (which
// can be mid-block for segment readers).
func (d *Reader) loadBlock(h blockHeader) error {
	first, bcount := h.first, int(h.count)
	if cap(d.buf) < int(h.clen) {
		d.buf = make([]byte, h.clen)
	}
	payload := d.buf[:h.clen]
	if _, err := io.ReadFull(d.br, payload); err != nil {
		return fmt.Errorf("trace: event %d: block payload: %w", d.read, truncated(err))
	}
	if got := crc32.Checksum(payload, castagnoli); got != h.crc {
		return fmt.Errorf("trace: block at event %d: %w: checksum mismatch", first, ErrCorrupt)
	}
	if cap(d.pending) < bcount {
		d.pending = make([]cpu.Event, bcount)
	}
	d.pending = d.pending[:bcount]
	if err := decodeBlockPayload(payload, d.pending, first, &d.sc); err != nil {
		d.pending = d.pending[:0]
		d.pendPos = 0
		return err
	}
	if d.read < first || d.read-first >= uint64(bcount) {
		d.pending = d.pending[:0]
		d.pendPos = 0
		return fmt.Errorf("trace: block at event %d: %w: does not contain event %d", first, ErrCorrupt, d.read)
	}
	d.pendPos = int(d.read - first)
	d.nextBlock = first + uint64(bcount)
	return nil
}

// decodeBlock advances the stream to the next block and decodes it.
func (d *Reader) decodeBlock() error {
	h, err := d.readBlockHeader()
	if err != nil {
		return err
	}
	return d.loadBlock(h)
}

func (d *Reader) nextBatchV2(dst []cpu.Event) (int, error) {
	if d.pendPos >= len(d.pending) {
		if err := d.decodeBlock(); err != nil {
			return 0, err
		}
	}
	n := copy(dst, d.pending[d.pendPos:])
	// A segment reader's logical end can land mid-block: serve only up
	// to it, like a v1 reader whose section ran out of records.
	if rem := d.count - d.read; uint64(n) > rem {
		n = int(rem)
	}
	d.pendPos += n
	d.read += uint64(n)
	return n, nil
}

// skipV2 advances past n events. Whole blocks inside the skip are
// discarded by their declared payload length without checksum or decode —
// the same "resume trusts the checkpointing pass" contract v1's Skip has —
// and only a final partially-skipped block is actually decoded.
func (d *Reader) skipV2(n uint64) error {
	target := d.read + n
	for n > 0 {
		if d.pendPos < len(d.pending) {
			c := uint64(len(d.pending) - d.pendPos)
			if c > n {
				c = n
			}
			d.pendPos += int(c)
			d.read += c
			n -= c
			continue
		}
		h, err := d.readBlockHeader()
		if err != nil {
			return fmt.Errorf("trace: skipping to event %d: %w", target, err)
		}
		if uint64(h.count) <= n {
			if _, err := d.br.Discard(int(h.clen)); err != nil {
				return fmt.Errorf("trace: skipping to event %d: %w", target, truncated(err))
			}
			d.read += uint64(h.count)
			n -= uint64(h.count)
			d.nextBlock = h.first + uint64(h.count)
			continue
		}
		if err := d.loadBlock(h); err != nil {
			return fmt.Errorf("trace: skipping to event %d: %w", target, err)
		}
	}
	return nil
}
