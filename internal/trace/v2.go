package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/cpu"
)

// PIFTTRC2 — the block-compressed wire format. PIFTTRC1 spends a fixed
// 25 bytes on every event even though the stream is massively redundant:
// Seq is near-monotonic (front ends emit a per-process instruction
// counter that mostly steps by small increments), PIDs arrive in long
// context-switch runs, ranges are small and local, and kinds fit in two
// bits. At serving scale the tracker is no longer the binding resource —
// the bytes moved over HTTP and spilled to disk are — so v2 trades a
// little encode/decode arithmetic for a ~5x smaller stream.
//
// Layout (little-endian throughout):
//
//	magic   [8]byte  "PIFTTRC2"
//	count   uint64   total event count (same 16-byte header as v1)
//	blocks  until count events are covered, each:
//	  first uint64   absolute index of the block's first event
//	  count uint32   events in the block (1..65536)
//	  clen  uint32   payload length in bytes
//	  crc   uint32   CRC-32C (Castagnoli) of the payload
//	  payload clen bytes
//
// Each block payload is self-contained (every delta chain restarts at
// the block boundary) and column-oriented:
//
//	pid dictionary   uvarint n; n × uvarint pid        (first-appearance order)
//	pid runs         (uvarint dictIndex, uvarint runLen)… summing to count
//	kind/tag         count × uvarint(kind | zigzag(tag)<<2)
//	seq              count × uvarint(zigzag(seq delta)), chained per PID
//	range start      count × uvarint(zigzag(start delta)), chained per PID
//	range length     count × uvarint(end-start)
//
// The seq and range-start columns delta against the previous event of
// the *same PID* (every chain starting at 0 at the block boundary):
// Seq is a per-process instruction counter and range locality is
// per-process too, so chaining per PID keeps deltas single-byte even
// when the stream interleaves processes finely — which is both where
// the compression comes from and why decode stays on the single-byte
// varint fast path.
//
// Self-contained blocks are what keep the shard-owned ingest working at
// block granularity: an Index built from one cheap header walk locates
// any block by event index, so Index.PlanRange still pre-splits a trace into
// per-reader segments by arithmetic — over block boundaries instead of a
// fixed record stride — and a segment reader starting mid-block decodes
// its containing block and discards the prefix. The per-block CRC plus
// the contiguity checks on block headers map every damaged stream onto
// the same taxonomy v1 uses: ErrTruncated, ErrCorrupt, ErrBadMagic,
// ErrTooLarge.

var traceMagicV2 = [8]byte{'P', 'I', 'F', 'T', 'T', 'R', 'C', '2'}

// Format names a trace wire format.
type Format uint8

const (
	// FormatV1 is the fixed-stride PIFTTRC1 format (25 bytes/event).
	FormatV1 Format = 1
	// FormatV2 is the block-compressed PIFTTRC2 format.
	FormatV2 Format = 2
)

func (f Format) String() string {
	switch f {
	case FormatV1:
		return "v1"
	case FormatV2:
		return "v2"
	}
	return fmt.Sprintf("format(%d)", uint8(f))
}

// ParseFormat maps the CLI spelling of a wire format onto the constant.
func ParseFormat(s string) (Format, error) {
	switch s {
	case "v1", "V1", "PIFTTRC1":
		return FormatV1, nil
	case "v2", "V2", "PIFTTRC2":
		return FormatV2, nil
	}
	return 0, fmt.Errorf("trace: unknown wire format %q (want v1 or v2)", s)
}

const (
	// blockHeaderSize is the fixed framing in front of every block.
	blockHeaderSize = 8 + 4 + 4 + 4

	// DefaultBlockEvents is the block size writers use unless told
	// otherwise: big enough to amortize the header and the delta-chain
	// restart, small enough that a block decodes into cache and a
	// resumable upload acks at fine granularity.
	DefaultBlockEvents = 4096

	// maxBlockEvents bounds a block's declared event count; a header
	// promising more is corrupt by construction (no writer emits it).
	maxBlockEvents = 1 << 16

	// maxBlockBytes bounds a block's declared payload length. Even a
	// pathological 65536-event block encodes far below this; honoring a
	// bigger claim would provoke a giant allocation, so it is classified
	// like the v1 header sanity cap.
	maxBlockBytes = 1 << 23
)

// castagnoli is the CRC-32C table; the Castagnoli polynomial has
// hardware support on every platform this runs on.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// zigzag folds a signed delta into an unsigned varint-friendly value:
// small magnitudes of either sign stay small.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// encScratch is a block encoder's reusable working state: the PID
// dictionary, each event's dictionary index, and the per-PID delta
// chains. Cleared per block, allocation-free once warm.
type encScratch struct {
	dict  map[uint32]uint64
	order []uint32
	idx   []uint16 // per-event dictionary index
	seq   []uint64 // per-dict-entry seq chain
	start []int64  // per-dict-entry range-start chain
}

// resetU64 sizes s to n with every entry zero, reusing capacity.
func resetU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// resetI64 sizes s to n with every entry zero, reusing capacity.
func resetI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// appendBlock appends evs to dst as one framed block whose first event
// has absolute index first: the block header, then the payload.
func appendBlock(dst []byte, first uint64, evs []cpu.Event, sc *encScratch) ([]byte, error) {
	at := len(dst)
	dst, err := appendBlockPayload(append(dst, make([]byte, blockHeaderSize)...), evs, sc)
	if err != nil {
		return dst, err
	}
	hdr, payload := dst[at:at+blockHeaderSize], dst[at+blockHeaderSize:]
	binary.LittleEndian.PutUint64(hdr[0:], first)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(evs)))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[16:], crc32.Checksum(payload, castagnoli))
	return dst, nil
}

// appendBlockPayload encodes evs as one self-contained block payload
// using sc-owned scratch, so the writer allocates nothing per block once
// warm.
func appendBlockPayload(dst []byte, evs []cpu.Event, sc *encScratch) ([]byte, error) {
	for _, ev := range evs {
		if ev.Kind > cpu.EvSinkCheck {
			return dst, fmt.Errorf("trace: cannot encode unknown event kind %d", ev.Kind)
		}
		if ev.Range.End < ev.Range.Start {
			return dst, fmt.Errorf("trace: cannot encode inverted range [%d,%d)", ev.Range.Start, ev.Range.End)
		}
	}
	// PID dictionary in first-appearance order, plus each event's
	// dictionary index — the per-PID delta chains below key on it.
	clear(sc.dict)
	sc.order = sc.order[:0]
	sc.idx = sc.idx[:0]
	for _, ev := range evs {
		id, ok := sc.dict[ev.PID]
		if !ok {
			id = uint64(len(sc.order))
			sc.dict[ev.PID] = id
			sc.order = append(sc.order, ev.PID)
		}
		sc.idx = append(sc.idx, uint16(id))
	}
	dst = binary.AppendUvarint(dst, uint64(len(sc.order)))
	for _, pid := range sc.order {
		dst = binary.AppendUvarint(dst, uint64(pid))
	}
	// PID runs.
	for i := 0; i < len(evs); {
		j := i + 1
		for j < len(evs) && evs[j].PID == evs[i].PID {
			j++
		}
		dst = binary.AppendUvarint(dst, uint64(sc.idx[i]))
		dst = binary.AppendUvarint(dst, uint64(j-i))
		i = j
	}
	// Kind/tag, packed: the two kind bits below the zigzagged tag.
	for _, ev := range evs {
		dst = binary.AppendUvarint(dst, uint64(ev.Kind)|zigzag(int64(ev.Tag))<<2)
	}
	// Seq deltas, chained per PID: Seq is a per-process counter, so the
	// previous event of the same PID is the one a small step away.
	// uint64 subtraction wraps, so every (prev, seq) pair is
	// representable.
	sc.seq = resetU64(sc.seq, len(sc.order))
	for k, ev := range evs {
		d := sc.idx[k]
		dst = binary.AppendUvarint(dst, zigzag(int64(ev.Seq-sc.seq[d])))
		sc.seq[d] = ev.Seq
	}
	// Range-start deltas, chained per PID for the same locality reason
	// (signed: small magnitudes either way).
	sc.start = resetI64(sc.start, len(sc.order))
	for k, ev := range evs {
		d := sc.idx[k]
		dst = binary.AppendUvarint(dst, zigzag(int64(ev.Range.Start)-sc.start[d]))
		sc.start[d] = int64(ev.Range.Start)
	}
	// Range lengths.
	for _, ev := range evs {
		dst = binary.AppendUvarint(dst, uint64(ev.Range.End-ev.Range.Start))
	}
	return dst, nil
}

// getUvarint decodes one uvarint of b at index i, returning the value
// and the next index; a negative index reports a malformed or truncated
// varint. The single-byte fast path carries the hot decode loops.
func getUvarint(b []byte, i int) (uint64, int) {
	if i >= 0 && i < len(b) && b[i] < 0x80 {
		return uint64(b[i]), i + 1
	}
	if i < 0 || i > len(b) {
		return 0, -1
	}
	v, n := binary.Uvarint(b[i:])
	if n <= 0 {
		return 0, -1
	}
	return v, i + n
}

// decScratch is a block decoder's reusable working state, mirroring
// encScratch: the decoded PID dictionary, each event's dictionary index
// (recovered from the run column), and the per-PID delta chains.
type decScratch struct {
	pids  []uint32
	idx   []uint16
	seq   []uint64
	start []int64
}

// decodeBlockPayload decodes a verified (CRC-checked) block payload into
// dst, whose length is the block's declared event count. first is the
// block's absolute first event index, used only for error reporting.
// Every structural impossibility — dictionary indexes out of range, runs
// not summing to the count, accumulated ranges leaving uint32, trailing
// or missing bytes — is ErrCorrupt: the bytes arrived intact-length and
// CRC-clean but cannot be a block this package wrote.
func decodeBlockPayload(payload []byte, dst []cpu.Event, first uint64, sc *decScratch) error {
	corrupt := func(what string) error {
		return fmt.Errorf("trace: block at event %d: %w: %s", first, ErrCorrupt, what)
	}
	ndict, i := getUvarint(payload, 0)
	if i < 0 || ndict == 0 || ndict > uint64(len(dst)) {
		return corrupt("bad PID dictionary size")
	}
	if cap(sc.pids) < int(ndict) {
		sc.pids = make([]uint32, ndict)
	}
	pids := sc.pids[:ndict]
	sc.pids = pids
	for k := range pids {
		var v uint64
		v, i = getUvarint(payload, i)
		if i < 0 || v > 1<<32-1 {
			return corrupt("bad PID dictionary entry")
		}
		pids[k] = uint32(v)
	}
	if cap(sc.idx) < len(dst) {
		sc.idx = make([]uint16, len(dst))
	}
	idx := sc.idx[:len(dst)]
	sc.idx = idx
	// The column loops below decode one uvarint per event each. getUvarint
	// is too big for the inliner (cost ~127 vs the 80 budget), and a
	// non-inlined call per column per event is most of the decode cost,
	// so each loop carries 1/2/3-byte fast paths inline — the
	// uint(i)+k < uint(len) compares both guard the loads and eliminate
	// the bounds checks, and three bytes cover every varint the per-PID
	// delta chains produce in practice (a 64 KiB-arena start delta
	// zigzags into 17 bits) — with only longer or payload-end varints
	// taking the call. Each later branch is only reached with the
	// previous bytes' continuation bits set, so the masks are exact.
	for filled := 0; filled < len(dst); {
		var id, n uint64
		id, i = getUvarint(payload, i)
		n, i = getUvarint(payload, i)
		if i < 0 || id >= ndict || n == 0 || n > uint64(len(dst)-filled) {
			return corrupt("bad PID run")
		}
		pid := pids[id]
		for k := 0; k < int(n); k++ {
			dst[filled+k].PID = pid
			idx[filled+k] = uint16(id)
		}
		filled += int(n)
	}
	for k := range dst {
		var v uint64
		if uint(i) < uint(len(payload)) && payload[i] < 0x80 {
			v = uint64(payload[i])
			i++
		} else if uint(i)+1 < uint(len(payload)) && payload[i+1] < 0x80 {
			v = uint64(payload[i]&0x7f) | uint64(payload[i+1])<<7
			i += 2
		} else if uint(i)+2 < uint(len(payload)) && payload[i+2] < 0x80 {
			v = uint64(payload[i]&0x7f) | uint64(payload[i+1]&0x7f)<<7 | uint64(payload[i+2])<<14
			i += 3
		} else if v, i = getUvarint(payload, i); i < 0 {
			return corrupt("bad kind/tag column")
		}
		dst[k].Kind = cpu.EventKind(v & 3)
		dst[k].Tag = int(unzigzag(v >> 2))
	}
	sc.seq = resetU64(sc.seq, int(ndict))
	lastSeq := sc.seq
	for k := range dst {
		var v uint64
		if uint(i) < uint(len(payload)) && payload[i] < 0x80 {
			v = uint64(payload[i])
			i++
		} else if uint(i)+1 < uint(len(payload)) && payload[i+1] < 0x80 {
			v = uint64(payload[i]&0x7f) | uint64(payload[i+1])<<7
			i += 2
		} else if uint(i)+2 < uint(len(payload)) && payload[i+2] < 0x80 {
			v = uint64(payload[i]&0x7f) | uint64(payload[i+1]&0x7f)<<7 | uint64(payload[i+2])<<14
			i += 3
		} else if v, i = getUvarint(payload, i); i < 0 {
			return corrupt("bad seq column")
		}
		d := idx[k]
		s := lastSeq[d] + uint64(unzigzag(v))
		lastSeq[d] = s
		dst[k].Seq = s
	}
	sc.start = resetI64(sc.start, int(ndict))
	lastStart := sc.start
	for k := range dst {
		var v uint64
		if uint(i) < uint(len(payload)) && payload[i] < 0x80 {
			v = uint64(payload[i])
			i++
		} else if uint(i)+1 < uint(len(payload)) && payload[i+1] < 0x80 {
			v = uint64(payload[i]&0x7f) | uint64(payload[i+1])<<7
			i += 2
		} else if uint(i)+2 < uint(len(payload)) && payload[i+2] < 0x80 {
			v = uint64(payload[i]&0x7f) | uint64(payload[i+1]&0x7f)<<7 | uint64(payload[i+2])<<14
			i += 3
		} else if v, i = getUvarint(payload, i); i < 0 {
			return corrupt("bad range-start column")
		}
		d := idx[k]
		start := lastStart[d] + unzigzag(v)
		if start < 0 || start > 1<<32-1 {
			return corrupt("range start outside the address space")
		}
		lastStart[d] = start
		dst[k].Range.Start = uint32(start)
	}
	for k := range dst {
		var v uint64
		if uint(i) < uint(len(payload)) && payload[i] < 0x80 {
			v = uint64(payload[i])
			i++
		} else if uint(i)+1 < uint(len(payload)) && payload[i+1] < 0x80 {
			v = uint64(payload[i]&0x7f) | uint64(payload[i+1])<<7
			i += 2
		} else if uint(i)+2 < uint(len(payload)) && payload[i+2] < 0x80 {
			v = uint64(payload[i]&0x7f) | uint64(payload[i+1]&0x7f)<<7 | uint64(payload[i+2])<<14
			i += 3
		} else if v, i = getUvarint(payload, i); i < 0 {
			return corrupt("bad range-length column")
		}
		end := int64(dst[k].Range.Start) + int64(v)
		if v > 1<<32-1 || end > 1<<32-1 {
			return corrupt("range end outside the address space")
		}
		dst[k].Range.End = uint32(end)
	}
	if i != len(payload) {
		return corrupt("trailing bytes after the last column")
	}
	return nil
}
