package pipeline

import (
	"context"
	"fmt"
	"io"

	"repro/internal/cpu"
)

// BatchSource is a pull-based event stream delivered in bulk and
// terminated by io.EOF. trace.Reader implements it, so a serialized trace
// can feed the pipeline without being materialized; any other streaming
// producer (a socket, a generator) fits the same shape. The contract
// mirrors trace.Reader.NextBatch: up to len(dst) events are decoded into
// dst; a clean end returns (0, io.EOF) with no events; a failing record
// returns every event before it together with the error.
type BatchSource interface {
	NextBatch(dst []cpu.Event) (int, error)
}

// Drain feeds src into the pipeline until io.EOF, honoring the
// checkpoint policy (Options.CheckpointEvery/OnCheckpoint), then closes
// and returns the merged result. Events arrive BatchSize at a time
// through one reused buffer, and cancellation is checked once per batch.
// A pipeline restored from a checkpoint consumes the remainder of a
// stream the same way: Restore, Skip the source to Offset(), Drain.
// Checkpoint boundaries are absolute event offsets (multiples of
// CheckpointEvery from stream start), so a resumed run keeps the original
// cadence; a batch is capped at the distance to the next boundary, so a
// checkpoint always falls on a batch edge. On a source, checkpoint, or
// cancellation error the pipeline is shut down cleanly and the error
// returned; the partial Result is discarded. A worker failure surfaces as
// the error too (and in Result.Err).
func (p *Pipeline) Drain(ctx context.Context, src BatchSource) (Result, error) {
	buf := make([]cpu.Event, p.opts.BatchSize)
	for {
		if err := ctx.Err(); err != nil {
			return p.fail(err)
		}
		limit := p.spanEnd(p.events+uint64(len(buf))) - p.events
		n, err := src.NextBatch(buf[:limit])
		p.push(buf[:n])
		if n > 0 {
			if cerr := p.maybeCheckpoint(); cerr != nil {
				return p.fail(cerr)
			}
		}
		if err == io.EOF {
			return p.finish()
		}
		if err != nil {
			return p.fail(err)
		}
	}
}

// spanEnd caps the stream offset end at the next CheckpointEvery boundary
// past the current offset.
func (p *Pipeline) spanEnd(end uint64) uint64 {
	if every := p.opts.CheckpointEvery; every > 0 {
		if next := p.events + every - p.events%every; next < end {
			return next
		}
	}
	return end
}

// maybeCheckpoint runs the checkpoint hook when the dispatch count sits on
// a CheckpointEvery boundary.
func (p *Pipeline) maybeCheckpoint() error {
	if p.opts.CheckpointEvery > 0 && p.events%p.opts.CheckpointEvery == 0 && p.opts.OnCheckpoint != nil {
		if err := p.opts.OnCheckpoint(p); err != nil {
			return fmt.Errorf("pipeline: checkpoint at offset %d: %w", p.events, err)
		}
	}
	return nil
}

// finish closes the pipeline at the end of a drained stream.
func (p *Pipeline) finish() (Result, error) {
	res := p.Close()
	return res, res.Err
}

// fail shuts the pipeline down after a drain error, discarding the
// partial Result.
func (p *Pipeline) fail(err error) (Result, error) {
	p.Close()
	return Result{}, err
}
