package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// The stage ledger replays a workload's request bodies through each
// layer's public API, one stage at a time, after the load phase has
// ended (never beside it). Each stage is timed as whole passes over
// every body and reported per event, per body or per session.

// ledgerMinEvents is how many events each per-event stage processes at
// least, in whole passes over the workload's bodies.
const ledgerMinEvents = 2 << 20

// ledgerBody is one request body prepared for replay.
type ledgerBody struct {
	events []cpu.Event
	v1, v2 []byte
	wire   []byte // the body as the workload sent it
}

// ledger holds the replay inputs and results.
type ledger struct {
	streams [][]ledgerBody // per tenant stream, its bodies in order
	format  trace.Format   // the workload's wire format
	workers int            // the server's ingest worker count
	passes  int
	events  int // events in one pass
	rec     *spanRecorder
	root    int64
	tmpDir  string
	out     map[string]float64
}

// newLedger decodes every body of streams and re-encodes it in both
// wire formats (untimed preparation).
func newLedger(streams []*stream, f trace.Format, workers int, tmpDir string, rec *spanRecorder) (*ledger, error) {
	l := &ledger{format: f, workers: workers, rec: rec, tmpDir: tmpDir, out: map[string]float64{}}
	for _, s := range streams {
		var bodies []ledgerBody
		for _, b := range s.bodies {
			rd, err := trace.NewReader(bytes.NewReader(b.data))
			if err != nil {
				return nil, err
			}
			evs := make([]cpu.Event, 0, b.events)
			for {
				ev, err := rd.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					return nil, err
				}
				evs = append(evs, ev)
			}
			lb := ledgerBody{events: evs, wire: b.data}
			for _, pf := range []struct {
				f   trace.Format
				dst *[]byte
			}{{trace.FormatV1, &lb.v1}, {trace.FormatV2, &lb.v2}} {
				var buf bytes.Buffer
				if _, err := (&trace.Recorder{Events: evs}).WriteToFormat(&buf, pf.f); err != nil {
					return nil, err
				}
				*pf.dst = buf.Bytes()
			}
			l.events += len(evs)
			bodies = append(bodies, lb)
		}
		l.streams = append(l.streams, bodies)
	}
	if l.events == 0 {
		return nil, fmt.Errorf("ledger: no events to replay")
	}
	l.passes = (ledgerMinEvents + l.events - 1) / l.events
	return l, nil
}

// perEvent times fn over every body, l.passes times, as one span per
// pass, and records ns/event under name.
func (l *ledger) perEvent(name string, fn func(b *ledgerBody) error) error {
	var total time.Duration
	for pass := 0; pass < l.passes; pass++ {
		start := time.Now()
		for _, s := range l.streams {
			for i := range s {
				if err := fn(&s[i]); err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
			}
		}
		end := time.Now()
		total += end.Sub(start)
		l.rec.add(0, l.root, "ledger."+name, "", start, end)
	}
	l.out[name] = float64(total) / float64(l.passes*l.events)
	return nil
}

// run measures every stage.
func (l *ledger) run() error {
	ledgerStart := time.Now()
	l.root = l.rec.id()
	defer func() { l.rec.add(l.root, 0, "ledger", "", ledgerStart, time.Now()) }()

	dst := make([]cpu.Event, 1024) // the server's per-stream decode batch
	decode := func(data []byte) error {
		rd, err := trace.NewReader(bytes.NewReader(data))
		if err != nil {
			return err
		}
		for {
			_, err := rd.NextBatch(dst)
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
		}
	}
	var enc bytes.Buffer
	var wireBytes int
	for _, s := range l.streams {
		for _, b := range s {
			wireBytes += len(b.wire)
		}
	}
	l.out["trace.bytes_per_event"] = float64(wireBytes) / float64(l.events)
	ctx := context.Background()
	drainTrace := func(workers int) func(b *ledgerBody) error {
		return func(b *ledgerBody) error {
			p := pipeline.New(pipeline.Options{Workers: workers, Config: trackerConfig})
			_, err := p.DrainTrace(ctx, bytes.NewReader(b.wire))
			return err
		}
	}
	stages := []struct {
		name string
		fn   func(b *ledgerBody) error
	}{
		{"trace.decode_v1_ns_per_event", func(b *ledgerBody) error { return decode(b.v1) }},
		{"trace.decode_v2_ns_per_event", func(b *ledgerBody) error { return decode(b.v2) }},
		{"trace.encode_ns_per_event", func(b *ledgerBody) error {
			enc.Reset()
			_, err := (&trace.Recorder{Events: b.events}).WriteToFormat(&enc, l.format)
			return err
		}},
		{"core.tracker_ns_per_event", func(b *ledgerBody) error {
			tr := core.NewTracker(trackerConfig, nil)
			for _, ev := range b.events {
				tr.Event(ev)
			}
			return nil
		}},
		{"pipeline.drain_trace_ns_per_event_w1", drainTrace(1)},
		{"pipeline.drain_trace_ns_per_event_wN", drainTrace(l.workers)},
		{"pipeline.push_ns_per_event", func(b *ledgerBody) error {
			rd, err := trace.NewReader(bytes.NewReader(b.wire))
			if err != nil {
				return err
			}
			p := pipeline.New(pipeline.Options{Workers: l.workers, Config: trackerConfig})
			_, err = p.Drain(ctx, rd)
			return err
		}},
	}
	for _, st := range stages {
		if err := l.perEvent(st.name, st.fn); err != nil {
			return err
		}
	}

	l.out["pipeline.overhead_ratio"] = l.out["pipeline.drain_trace_ns_per_event_w1"] / l.analysisNS()

	finals, err := l.sessions()
	if err != nil {
		return err
	}
	return l.snapshots(finals)
}

// analysisNS is the per-event cost of the analysis itself: decode in the
// workload's wire format plus the tracker.
func (l *ledger) analysisNS() float64 {
	decode := l.out["trace.decode_v1_ns_per_event"]
	if l.format == trace.FormatV2 {
		decode = l.out["trace.decode_v2_ns_per_event"]
	}
	return decode + l.out["core.tracker_ns_per_event"]
}

// sessions replays each tenant stream into one tracker, as the server's
// session would see it, and returns the final trackers. Before each body
// big enough for the server's sharded path it times SplitByPID +
// MergeTrackers at the server's worker count on the state so far (0
// when no body is that big).
func (l *ledger) sessions() ([]*core.Tracker, error) {
	shardOf := func(pid uint32) int { return pipeline.ShardOf(pid, l.workers) }
	var total time.Duration
	var finals []*core.Tracker
	n, ranges := 0, 0
	for _, s := range l.streams {
		tr := core.NewTracker(trackerConfig, nil)
		for _, b := range s {
			if len(b.events) >= serverParallelThreshold {
				start := time.Now()
				parts, err := tr.SplitByPID(l.workers, shardOf)
				if err != nil {
					return nil, fmt.Errorf("split: %w", err)
				}
				if _, err := core.MergeTrackers(parts); err != nil {
					return nil, fmt.Errorf("merge: %w", err)
				}
				end := time.Now()
				total += end.Sub(start)
				n++
				l.rec.add(0, l.root, "ledger.core.split_merge", "", start, end)
			}
			for _, ev := range b.events {
				tr.Event(ev)
			}
		}
		ranges += tr.RangeCount()
		finals = append(finals, tr)
	}
	l.out["core.split_merge_ms_per_body"] = ratio(float64(total)/1e6, float64(n))
	l.out["core.live_ranges"] = float64(ranges) / float64(len(l.streams))
	return finals, nil
}

// snapshots times the snapshot codec and the spill write on each
// stream's final session state, repeated until each stage has covered
// at least 200 sessions.
func (l *ledger) snapshots(finals []*core.Tracker) error {
	if err := os.MkdirAll(l.tmpDir, 0o755); err != nil {
		return err
	}
	reps := (200 + len(finals) - 1) / len(finals)
	var wTotal, rTotal, fTotal time.Duration
	var bytesTotal int
	var buf bytes.Buffer
	for rep := 0; rep < reps; rep++ {
		for i, tr := range finals {
			buf.Reset()
			start := time.Now()
			if _, err := tr.WriteSnapshot(&buf); err != nil {
				return fmt.Errorf("snapshot write: %w", err)
			}
			mid := time.Now()
			if _, err := core.ReadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
				return fmt.Errorf("snapshot read: %w", err)
			}
			end := time.Now()
			path := filepath.Join(l.tmpDir, fmt.Sprintf("ledger-%d.snap", i))
			if err := atomicfile.WriteFile(path, func(w io.Writer) error {
				_, err := w.Write(buf.Bytes())
				return err
			}); err != nil {
				return fmt.Errorf("atomicfile: %w", err)
			}
			done := time.Now()
			wTotal += mid.Sub(start)
			rTotal += end.Sub(mid)
			fTotal += done.Sub(end)
			bytesTotal += buf.Len()
			l.rec.add(0, l.root, "ledger.core.snapshot_write", "", start, mid)
			l.rec.add(0, l.root, "ledger.core.snapshot_read", "", mid, end)
			l.rec.add(0, l.root, "ledger.atomicfile.write", "", end, done)
		}
	}
	n := float64(reps * len(finals))
	l.out["core.snapshot_write_us"] = float64(wTotal) / 1e3 / n
	l.out["core.snapshot_read_us"] = float64(rTotal) / 1e3 / n
	l.out["core.snapshot_bytes"] = float64(bytesTotal) / n
	l.out["atomicfile.write_us"] = float64(fTotal) / 1e3 / n
	return os.RemoveAll(l.tmpDir)
}
