package pipeline

import (
	"context"
	"fmt"
	"io"
	"sync"

	"repro/internal/cpu"
	"repro/internal/trace"
)

// DrainTrace is the ingest for serialized traces that can be read at any
// offset. A segment planner pre-splits the trace by pure arithmetic —
// over the fixed record stride for PIFTTRC1, over the block index for
// PIFTTRC2 (trace.LoadIndex) — and each of up to N segment readers owns
// its segment from bytes to batches: its own trace.Reader, decode buffer
// and dispatcher. Decode and sharding then scale with the worker count
// instead of running on one producer goroutine.
//
// Correctness is the phase ordering argument (see open): segments are
// contiguous and planned in trace order, and each phase lists the
// readers in that order, so a shard's event sequence is the
// concatenation of its per-segment subsequences in segment order —
// exactly the trace-order subsequence Event or Drain would deliver.
//
// Checkpoint offsets keep their contract by phasing: the trace is drained
// in phases bounded at CheckpointEvery multiples, with a full barrier
// (readers done, workers drained) between phases. Checkpoints therefore
// fire at precisely the same absolute offsets as Drain, against quiescent
// trackers, and a checkpoint written here restores onto either entry
// point.

// DrainTrace consumes the serialized trace in ra — either wire format,
// sniffed from the header — through segment readers and returns the
// merged result, honoring the same checkpoint policy as Drain. For a
// block-compressed PIFTTRC2 trace segment boundaries snap to blocks but
// phase and checkpoint offsets stay in event counts, so checkpoints fire
// at identical offsets on both formats. A pipeline restored from a
// checkpoint resumes by calling DrainTrace on the same bytes: the planner
// starts at Offset(), no Skip needed. On a decode, checkpoint, or
// cancellation error the pipeline is shut down cleanly and the error
// returned; the partial Result is discarded.
func (p *Pipeline) DrainTrace(ctx context.Context, ra io.ReaderAt) (Result, error) {
	p.Sync() // events pushed before this call precede the trace
	idx, err := trace.LoadIndex(ra)
	if err != nil {
		return p.fail(err)
	}
	total := idx.Count()
	if p.events > total {
		return p.fail(fmt.Errorf("pipeline: resume offset %d beyond trace length %d", p.events, total))
	}
	for p.events < total {
		if err := ctx.Err(); err != nil {
			return p.fail(err)
		}
		end := p.spanEnd(total)
		if err := p.drainSpan(ctx, idx, ra, p.events, end); err != nil {
			return p.fail(err)
		}
		p.events = end
		if err := p.maybeCheckpoint(); err != nil {
			return p.fail(err)
		}
	}
	return p.finish()
}

// drainSpan drains the event range [first, end) of ra as one phase: one
// segment per reader, each reader feeding its own dispatcher. On return
// every event of the range has been analyzed (or the error says why not)
// and the workers are quiescent — the phase barrier's Wait edge publishes
// their tracker state to this goroutine, which is what entitles the
// caller to checkpoint next.
func (p *Pipeline) drainSpan(ctx context.Context, idx *trace.Index, ra io.ReaderAt, first, end uint64) error {
	segs := idx.PlanRange(first, end-first, len(p.workers), p.opts.BatchSize)
	ds, done := p.open(len(segs))
	errs := make([]error, len(segs))
	var readers sync.WaitGroup
	readers.Add(len(segs))
	for r, seg := range segs {
		go func(r int, seg trace.Segment) {
			defer readers.Done()
			errs[r] = p.readSegment(ctx, idx.SegmentReader(ra, seg), ds[r])
		}(r, seg)
	}
	readers.Wait()
	done.Wait()
	for _, err := range errs { // first failure in trace order
		if err != nil {
			return err
		}
	}
	return nil
}

// readSegment is one reader's whole job: decode the segment batch by
// batch into its dispatcher — the same bounded backpressure as Event, per
// reader×worker ring. The dispatcher is closed on the way out, success or
// not, which is what keeps a failed phase from wedging its workers.
func (p *Pipeline) readSegment(ctx context.Context, src *trace.Reader, d *dispatcher) error {
	defer d.close()
	buf := make([]cpu.Event, p.opts.BatchSize)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		n, err := src.NextBatch(buf)
		for i := range buf[:n] {
			if w, full := d.add(&buf[i]); full {
				d.flush(w)
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}
