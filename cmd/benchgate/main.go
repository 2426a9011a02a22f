// Command benchgate is the CI performance-regression gate: it compares a
// freshly measured piftbench pipeline artifact against the committed
// baseline and exits nonzero when the candidate regresses events/sec by
// more than the threshold at any worker count, when any parity row in
// the candidate diverged from the sequential tracker, or when the
// candidate's steady-state allocation rate exceeds the alloc budget.
//
// Usage:
//
//	benchgate -baseline BENCH_pipeline.json -current BENCH_current.json \
//	    [-threshold 0.25] [-max-allocs-per-event 0.01] [-summary out.md] \
//	    [-min-scaling 1.5] [-min-scaling-workers 4] \
//	    [-max-bytes-per-event 6.0] [-min-decode-ratio 0.75] \
//	    [-server-baseline BENCH_server.json -server-current BENCH_server_current.json] \
//	    [-server-threshold 0.25]
//
// The gate only fails on regressions — a faster candidate passes — and a
// worker count present in the baseline but missing from the candidate is
// a failure, since the gate cannot certify what it did not measure.
// -min-scaling additionally enforces an absolute floor on the
// candidate's shard-owned synthetic speedup at -min-scaling-workers
// workers; it is skipped (with a notice) when the measuring machine's
// recorded NumCPU is below that worker count, because a machine without
// the cores physically cannot exhibit the speedup being gated.
// -max-bytes-per-event caps the candidate's average PIFTTRC2 wire cost
// over its compression table, and -min-decode-ratio floors the v2/v1
// decode-throughput ratio (both negative = off); these are absolute
// properties of the candidate, no baseline needed.
// -summary appends a benchstat-style old/new markdown table to the given
// file (CI passes $GITHUB_STEP_SUMMARY) in addition to the stdout report.
//
// -server-baseline/-server-current gate the serving layer the same way
// against piftbench -exp server artifacts (both empty = server gate off):
// whole-session ingest events/sec regression bounded by
// -server-threshold.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/eval"
)

func main() {
	baseline := flag.String("baseline", "BENCH_pipeline.json", "committed baseline artifact")
	current := flag.String("current", "BENCH_current.json", "freshly measured artifact")
	threshold := flag.Float64("threshold", 0.25, "maximum tolerated events/sec regression (fraction)")
	maxAllocs := flag.Float64("max-allocs-per-event", 0.01, "maximum steady-state allocs per event in the candidate (the slack covers a GC emptying the batch sync.Pool mid-measurement; negative disables)")
	minScaling := flag.Float64("min-scaling", -1, "minimum shard-owned synthetic speedup at -min-scaling-workers workers (negative disables; skipped when the candidate's NumCPU is below the worker count)")
	minScalingWorkers := flag.Int("min-scaling-workers", 4, "worker count the -min-scaling floor applies to")
	maxBytesPerEvent := flag.Float64("max-bytes-per-event", -1, "maximum average PIFTTRC2 wire bytes per event in the candidate's compression table (negative disables)")
	minDecodeRatio := flag.Float64("min-decode-ratio", -1, "minimum v2/v1 decode-throughput ratio in the candidate (negative disables)")
	summary := flag.String("summary", "", "append a markdown old/new table to this file (e.g. $GITHUB_STEP_SUMMARY)")
	serverBase := flag.String("server-baseline", "", "committed server baseline artifact (piftbench -exp server); empty disables the server gate")
	serverCur := flag.String("server-current", "", "freshly measured server artifact")
	serverThreshold := flag.Float64("server-threshold", 0.25, "maximum tolerated server events/sec regression (fraction)")
	flag.Parse()
	if *threshold < 0 || *threshold >= 1 {
		fmt.Fprintf(os.Stderr, "benchgate: -threshold %v out of range [0, 1)\n", *threshold)
		os.Exit(2)
	}

	failed := false
	var md strings.Builder
	if *baseline != "" || *current != "" {
		if gatePipeline(&md, *baseline, *current, *threshold, *maxAllocs, *minScaling, *minScalingWorkers) {
			failed = true
		}
		if gateWire(&md, *current, *maxBytesPerEvent, *minDecodeRatio) {
			failed = true
		}
	}
	if *serverBase != "" || *serverCur != "" {
		if gateServer(&md, *serverBase, *serverCur, *serverThreshold) {
			failed = true
		}
	}
	if (*baseline == "" && *current == "") && (*serverBase == "" && *serverCur == "") {
		fmt.Fprintln(os.Stderr, "benchgate: nothing to gate (all artifact paths empty)")
		os.Exit(2)
	}

	if *summary != "" {
		f, err := os.OpenFile(*summary, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		fatal(err)
		_, err = f.WriteString(md.String())
		fatal(err)
		fatal(f.Close())
	}

	if failed {
		fmt.Println("benchgate: FAILED")
		os.Exit(1)
	}
	fmt.Println("benchgate: ok")
}

// gatePipeline runs the original pipeline-artifact comparison. Reports
// failure.
func gatePipeline(md *strings.Builder, basePath, curPath string, threshold, maxAllocs, minScaling float64, minScalingWorkers int) bool {
	base, err := load(basePath)
	fatal(err)
	cur, err := load(curPath)
	fatal(err)

	failed := false
	for _, row := range cur.Parity {
		if !row.Match {
			fmt.Printf("FAIL parity: %s @ %d workers diverged from the sequential tracker\n", row.App, row.Workers)
			failed = true
		}
	}

	md.WriteString("### benchgate: pipeline events/sec, old vs new\n\n")
	md.WriteString("| workers | baseline ev/s | current ev/s | delta | status |\n")
	md.WriteString("|--:|--:|--:|--:|:--|\n")

	curBy := map[int]eval.PipelineScalingRow{}
	for _, row := range cur.Scaling {
		curBy[row.Workers] = row
	}
	for _, b := range base.Scaling {
		c, ok := curBy[b.Workers]
		if !ok {
			fmt.Printf("FAIL %2d workers: baseline has this point, candidate did not measure it\n", b.Workers)
			fmt.Fprintf(md, "| %d | %.0f | — | — | FAIL (unmeasured) |\n", b.Workers, b.PerSecond)
			failed = true
			continue
		}
		delta := c.PerSecond/b.PerSecond - 1
		status := "ok  "
		if delta < -threshold {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("%s %2d workers: %12.0f ev/s vs baseline %12.0f (%+.1f%%, limit -%.0f%%)\n",
			status, b.Workers, c.PerSecond, b.PerSecond, delta*100, threshold*100)
		fmt.Fprintf(md, "| %d | %.0f | %.0f | %+.1f%% | %s |\n",
			b.Workers, b.PerSecond, c.PerSecond, delta*100, strings.TrimSpace(status))
	}

	allocStatus := "ok"
	if maxAllocs >= 0 && cur.AllocsPerEvent > maxAllocs {
		fmt.Printf("FAIL allocs: %.4f allocs/event steady state, budget %.4f\n", cur.AllocsPerEvent, maxAllocs)
		allocStatus = "FAIL"
		failed = true
	} else {
		fmt.Printf("ok   allocs: %.4f allocs/event steady state (budget %.4f)\n", cur.AllocsPerEvent, maxAllocs)
	}
	fmt.Fprintf(md, "\nsteady-state allocs/event: **%.4f** (budget %.4f) — %s\n",
		cur.AllocsPerEvent, maxAllocs, allocStatus)

	if minScaling >= 0 {
		var row *eval.PipelineScalingRow
		for i := range cur.Synthetic {
			if cur.Synthetic[i].Workers == minScalingWorkers {
				row = &cur.Synthetic[i]
				break
			}
		}
		switch {
		case row == nil:
			fmt.Printf("FAIL scaling: candidate has no synthetic scaling row at %d workers — the gate cannot certify what it did not measure\n",
				minScalingWorkers)
			fmt.Fprintf(md, "\nshard-owned speedup @ %d workers: **unmeasured** (floor %.2fx) — FAIL\n",
				minScalingWorkers, minScaling)
			failed = true
		case cur.NumCPU < minScalingWorkers:
			fmt.Printf("skip scaling: candidate measured on %d CPUs, cannot exhibit a %d-worker speedup; floor %.2fx not enforced\n",
				cur.NumCPU, minScalingWorkers, minScaling)
			fmt.Fprintf(md, "\nshard-owned speedup @ %d workers: %.2fx on %d CPUs — floor %.2fx skipped\n",
				minScalingWorkers, row.Speedup, cur.NumCPU, minScaling)
		case row.Speedup < minScaling:
			fmt.Printf("FAIL scaling: shard-owned speedup %.2fx at %d workers, floor %.2fx (NumCPU %d)\n",
				row.Speedup, minScalingWorkers, minScaling, cur.NumCPU)
			fmt.Fprintf(md, "\nshard-owned speedup @ %d workers: **%.2fx** (floor %.2fx) — FAIL\n",
				minScalingWorkers, row.Speedup, minScaling)
			failed = true
		default:
			fmt.Printf("ok   scaling: shard-owned speedup %.2fx at %d workers (floor %.2fx, NumCPU %d)\n",
				row.Speedup, minScalingWorkers, minScaling, cur.NumCPU)
			fmt.Fprintf(md, "\nshard-owned speedup @ %d workers: **%.2fx** (floor %.2fx) — ok\n",
				minScalingWorkers, row.Speedup, minScaling)
		}
	}
	return failed
}

// gateWire enforces the wire-format gates on the candidate artifact:
// -max-bytes-per-event caps the event-weighted average PIFTTRC2 wire
// cost over the compression table, and -min-decode-ratio floors v2
// decode throughput relative to v1 — the compressed format must not buy
// its bytes with decode time. A gate asked of an artifact that carries
// no wire data fails: the gate cannot certify what was not measured.
// Reports failure.
func gateWire(md *strings.Builder, curPath string, maxBytesPerEvent, minDecodeRatio float64) bool {
	if maxBytesPerEvent < 0 && minDecodeRatio < 0 {
		return false
	}
	cur, err := load(curPath)
	fatal(err)

	failed := false
	md.WriteString("\n### benchgate: wire format\n\n")
	if maxBytesPerEvent >= 0 {
		switch {
		case len(cur.Wire) == 0 || cur.BytesPerEventV2 <= 0:
			fmt.Println("FAIL wire: candidate has no compression table — the gate cannot certify what it did not measure")
			fmt.Fprintf(md, "v2 bytes/event: **unmeasured** (cap %.2f) — FAIL\n", maxBytesPerEvent)
			failed = true
		case cur.BytesPerEventV2 > maxBytesPerEvent:
			fmt.Printf("FAIL wire: %.2f bytes/event average across %d corpora, cap %.2f\n",
				cur.BytesPerEventV2, len(cur.Wire), maxBytesPerEvent)
			fmt.Fprintf(md, "v2 bytes/event: **%.2f** (cap %.2f) — FAIL\n", cur.BytesPerEventV2, maxBytesPerEvent)
			failed = true
		default:
			fmt.Printf("ok   wire: %.2f bytes/event average across %d corpora (cap %.2f)\n",
				cur.BytesPerEventV2, len(cur.Wire), maxBytesPerEvent)
			fmt.Fprintf(md, "v2 bytes/event: **%.2f** (cap %.2f) — ok\n", cur.BytesPerEventV2, maxBytesPerEvent)
		}
	}
	if minDecodeRatio >= 0 {
		switch {
		case cur.DecodeV1PerSec <= 0 || cur.DecodeV2PerSec <= 0:
			fmt.Println("FAIL decode: candidate has no decode-throughput measurement — the gate cannot certify what it did not measure")
			fmt.Fprintf(md, "v2/v1 decode ratio: **unmeasured** (floor %.2f) — FAIL\n", minDecodeRatio)
			failed = true
		default:
			ratio := cur.DecodeV2PerSec / cur.DecodeV1PerSec
			if ratio < minDecodeRatio {
				fmt.Printf("FAIL decode: v2 decodes at %.2fx of v1 (%.0f vs %.0f ev/s), floor %.2f\n",
					ratio, cur.DecodeV2PerSec, cur.DecodeV1PerSec, minDecodeRatio)
				fmt.Fprintf(md, "v2/v1 decode ratio: **%.2f** (floor %.2f) — FAIL\n", ratio, minDecodeRatio)
				failed = true
			} else {
				fmt.Printf("ok   decode: v2 decodes at %.2fx of v1 (%.0f vs %.0f ev/s), floor %.2f\n",
					ratio, cur.DecodeV2PerSec, cur.DecodeV1PerSec, minDecodeRatio)
				fmt.Fprintf(md, "v2/v1 decode ratio: **%.2f** (floor %.2f) — ok\n", ratio, minDecodeRatio)
			}
		}
	}
	return failed
}

// gateServer compares the server artifacts the way the pipeline gate
// compares its own: whole-session ingest events/sec may regress by at
// most threshold. Reports failure.
func gateServer(md *strings.Builder, basePath, curPath string, threshold float64) bool {
	base, err := loadServer(basePath)
	fatal(err)
	cur, err := loadServer(curPath)
	fatal(err)

	md.WriteString("\n### benchgate: server session-ingest events/sec, old vs new\n\n")
	md.WriteString("| baseline ev/s | current ev/s | delta | status |\n")
	md.WriteString("|--:|--:|--:|:--|\n")
	delta := cur.PerSecond/base.PerSecond - 1
	failed := delta < -threshold
	status := "ok  "
	if failed {
		status = "FAIL"
	}
	fmt.Printf("%s server ingest: %12.0f ev/s vs baseline %12.0f (%+.1f%%, limit -%.0f%%)\n",
		status, cur.PerSecond, base.PerSecond, delta*100, threshold*100)
	fmt.Fprintf(md, "| %.0f | %.0f | %+.1f%% | %s |\n",
		base.PerSecond, cur.PerSecond, delta*100, strings.TrimSpace(status))
	return failed
}

func loadServer(path string) (*eval.ServerBenchResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r eval.ServerBenchResult
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.PerSecond <= 0 {
		return nil, fmt.Errorf("%s: no ingest measurement", path)
	}
	return &r, nil
}

func load(path string) (*eval.PipelineBenchResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r eval.PipelineBenchResult
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Scaling) == 0 {
		return nil, fmt.Errorf("%s: no scaling rows", path)
	}
	return &r, nil
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}
