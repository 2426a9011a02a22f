package core

import (
	"fmt"

	"repro/internal/mem"
)

// Tracker state partition and merge — the bridge between one sequential
// tracker and a sharded pipeline run (perfbench's stage ledger times it
// on live session state). Taint state, windows, and verdicts are all
// keyed by PID (the paper's process-specific ID tags every storage entry,
// Figure 6), so a tracker splits losslessly along any PID partition:
// SplitByPID deals each PID's state to its shard, the shards analyze
// disjoint PID subsequences, and MergeTrackers reassembles one tracker
// indistinguishable from a sequential run over the whole stream.
//
// Exactness contract (the same one pipeline.Result documents): counters
// and per-PID state are exact under split/replay/merge; the
// MaxBytes/MaxRanges watermarks are exact whenever taint lives in a
// single process at a time (every DroidBench trace — and in particular
// every single-PID tenant stream, for which the merged tracker's
// canonical snapshot is byte-identical to the sequential tracker's), and
// a lower bound on the cross-process instantaneous total otherwise.
// Merged verdicts are in canonical (PID, Seq, Tag) order; for a
// single-PID stream the canonical order IS the stream order (SortVerdicts
// is stable), so even verdict bytes match the sequential tracker exactly.

// SplitByPID deals a copy of the tracker's state onto n fresh trackers:
// every PID's window, taint set, and verdicts go to shard shardOf(pid),
// and the aggregate Stats are seeded whole onto shard 0 so a plain
// Stats.Merge over the shards yields prior history plus per-shard deltas.
// The receiver is not modified — the split is a snapshot, so a caller can
// abandon the shards (after a downstream failure) and still hold the
// original. Requires the unbounded IdealStore, like the snapshot codec:
// bounded stores evict by capacity and cannot be partitioned exactly.
func (t *Tracker) SplitByPID(n int, shardOf func(pid uint32) int) ([]*Tracker, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: split into %d trackers", n)
	}
	ideal, ok := t.store.(*IdealStore)
	if !ok {
		return nil, fmt.Errorf("core: split supports only the ideal store, have %T", t.store)
	}
	parts := make([]*Tracker, n)
	for i := range parts {
		parts[i] = NewTracker(t.cfg, nil)
	}
	place := func(pid uint32) (*Tracker, error) {
		i := shardOf(pid)
		if i < 0 || i >= n {
			return nil, fmt.Errorf("core: shard function sent pid %d to %d of %d", pid, i, n)
		}
		return parts[i], nil
	}
	for pid, w := range t.windows {
		p, err := place(pid)
		if err != nil {
			return nil, err
		}
		cp := *w
		p.windows[pid] = &cp
	}
	var ranges []mem.Range
	for _, pid := range ideal.PIDs() {
		p, err := place(pid)
		if err != nil {
			return nil, err
		}
		ranges = ideal.AppendRanges(pid, ranges[:0])
		for _, r := range ranges {
			p.store.Add(pid, r)
		}
	}
	for _, v := range t.verdicts {
		p, err := place(v.PID)
		if err != nil {
			return nil, err
		}
		p.verdicts = append(p.verdicts, v)
	}
	parts[0].stats = t.stats
	return parts, nil
}

// MergeTrackers folds PID-disjoint shard trackers (a SplitByPID family
// after further events) back into one tracker. State is copied out of the
// shards — they may keep running afterwards — and the merged tracker is
// semantically the union: windows and taint sets union by PID (a PID in
// two shards is a misuse error), counters sum and watermarks max via
// Stats.Merge, and verdicts concatenate in shard order then sort
// canonically with SortVerdicts.
func MergeTrackers(parts []*Tracker) (*Tracker, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("core: merge of zero trackers")
	}
	cfg := parts[0].cfg
	out := NewTracker(cfg, nil)
	seen := make(map[uint32]int, len(parts[0].windows)*len(parts))
	var ranges []mem.Range
	for i, part := range parts {
		if part.cfg != cfg {
			return nil, fmt.Errorf("core: merge config mismatch: shard %d has %v, shard 0 has %v", i, part.cfg, cfg)
		}
		ideal, ok := part.store.(*IdealStore)
		if !ok {
			return nil, fmt.Errorf("core: merge supports only the ideal store, shard %d has %T", i, part.store)
		}
		claim := func(pid uint32) error {
			if j, dup := seen[pid]; dup && j != i {
				return fmt.Errorf("core: merge: pid %d present in shards %d and %d", pid, j, i)
			}
			seen[pid] = i
			return nil
		}
		for pid, w := range part.windows {
			if err := claim(pid); err != nil {
				return nil, err
			}
			cp := *w
			out.windows[pid] = &cp
		}
		for _, pid := range ideal.PIDs() {
			if err := claim(pid); err != nil {
				return nil, err
			}
			ranges = ideal.AppendRanges(pid, ranges[:0])
			for _, r := range ranges {
				out.store.Add(pid, r)
			}
		}
		out.stats.Merge(part.stats)
		out.verdicts = append(out.verdicts, part.verdicts...)
	}
	SortVerdicts(out.verdicts)
	return out, nil
}
