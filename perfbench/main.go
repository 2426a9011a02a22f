// Command perfbench is the end-to-end benchmark of the taint service. It
// builds piftrun from the tree it sits in, starts a real `piftrun -serve`
// process, drives it with one of three traffic mixes from a single
// generator process, checks every ack and verdict against the one-shot
// oracle, and prints the result as one JSON line.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload fleet|bulk|interleave --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics from a traced run plus the stage ledger, and writes
// the run's spans to .bench_build/perfbench/. See README.md for the
// metrics, the workloads and why each exists.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/eval"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// setupStarts is how many times a run starts the server to measure
// setup_s: half before the load phase, the last of which serves it, and
// half after. A start takes about 5 ms and single starts vary by ±20%
// with the host's load, which drifts within seconds; the median of
// starts on both sides of the load follows that drift less than a
// burst of starts would.
const setupStarts = 22

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a --trace 0 run reports.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"events_per_s", "events/s"},
	{"ack_p50_ms", "ms"},
	{"ack_p99_ms", "ms"},
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"wire_bytes_per_event", "B/event"},
	{"server_cpu_ns_per_event", "ns/event"},
	{"server_peak_rss_mb", "MiB"},
}

// perLayer are the metrics a --trace 1 run reports.
var perLayer = []metricDef{
	{"trace.decode_v1_ns_per_event", "ns/event"},
	{"trace.decode_v2_ns_per_event", "ns/event"},
	{"trace.encode_ns_per_event", "ns/event"},
	{"trace.bytes_per_event", "B/event"},
	{"core.tracker_ns_per_event", "ns/event"},
	{"core.split_merge_ms_per_body", "ms/body"},
	{"core.live_ranges", "count"},
	{"core.snapshot_write_us", "us"},
	{"core.snapshot_read_us", "us"},
	{"core.snapshot_bytes", "B"},
	{"atomicfile.write_us", "us"},
	{"pipeline.drain_trace_ns_per_event_w1", "ns/event"},
	{"pipeline.drain_trace_ns_per_event_wN", "ns/event"},
	{"pipeline.push_ns_per_event", "ns/event"},
	{"pipeline.overhead_ratio", "ratio"},
	{"pipeline.backpressure_stalls", "count"},
	{"server.busy_ms_mean", "ms"},
	{"server.queue_wait_ms_mean", "ms"},
	{"server.plumbing_ns_per_event", "ns/event"},
	{"server.parallel_share", "ratio"},
	{"server.parallel_fallbacks", "count"},
	{"server.spool_bytes_per_event", "B/event"},
	{"server.hydrates_per_request", "ratio"},
	{"server.dehydrates_per_request", "ratio"},
	{"server.peek_hit_ratio", "ratio"},
	{"server.rejected", "count"},
	{"gen.late_p99_ms", "ms"},
	{"error_ratio", "ratio"},
	{"bench.tracing_overhead_pct", "%"},
}

// workloads are the traffic mixes the program runs. BENCHMARK.json
// gates bulk and interleave only: fleet's latencies are sub-millisecond
// and, on the small virtual machines this was tuned on, their p99 moved
// by 30-50% from run to run with the host's load, more than any bound a
// gate may use. fleet stays runnable for work on the spill and query
// paths it alone exercises (see README.md).
var workloads = []string{"fleet", "bulk", "interleave"}

// stamp identifies the machine, toolchain and code a result came from.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// bench is one run's configuration and inputs.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration // one load phase: --seconds, halved for --trace 1
	conns    int           // generator connections: the CPU count
	workers  int           // the server's ingest worker count (piftrun's default)
	bin      string
	runDir   string
	extra    []string // workload-specific piftrun deployment flags
	fleet    *fleetPlan
	bulk     *bulkPlan
}

func run() error {
	workload := flag.String("workload", "", "traffic mix: "+strings.Join(workloads, ", "))
	seed := flag.Int64("seed", 1, "seed for the generated inputs")
	seconds := flag.Int("seconds", 10, "length of the measured load phase")
	traceOn := flag.Int("trace", 0, "1: report per-layer metrics from a traced run and the stage ledger")
	flag.Parse()
	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	if !known || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		return fmt.Errorf("usage: --workload %s --seed N --seconds S --trace 0|1", strings.Join(workloads, "|"))
	}

	root, err := repoRoot()
	if err != nil {
		return err
	}
	buildDir := filepath.Join(root, ".bench_build", "perfbench")
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	bin, err := buildServer(root, buildDir)
	if err != nil {
		return err
	}
	st := stamp{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *traceOn == 1,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commitOf(root),
	}
	if line, err := json.Marshal(map[string]stamp{"stamp": st}); err == nil {
		fmt.Println(string(line))
	}

	b := &bench{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second / time.Duration(1+*traceOn),
		conns:    runtime.NumCPU(),
		workers:  min(runtime.GOMAXPROCS(0), 8),
		bin:      bin,
		runDir:   filepath.Join(buildDir, fmt.Sprintf("run-%d", os.Getpid())),
	}
	defer os.RemoveAll(b.runDir)
	// Inputs are generated and pre-encoded before any timing starts.
	if b.workload == "fleet" {
		b.extra = []string{"-spill-budget", fmt.Sprint(fleetSpillBudget)}
		b.fleet, err = planFleet(eval.NewHarness(4), b.seed, b.seconds, fleetIngestRate, fleetQueryRate)
		if err != nil {
			return err
		}
	} else {
		b.bulk = planBulk(b.workload, b.seed, 2*b.conns, bulkTenantBodies)
	}

	var res result
	if *traceOn == 0 {
		res, err = b.endToEnd()
	} else {
		res, err = b.layers(filepath.Join(buildDir, fmt.Sprintf("spans-%s-seed%d.json", b.workload, b.seed)), st)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errors.New("outputs differ from the one-shot oracle, or requests failed (see MISMATCH lines)")
	}
	return nil
}

// phaseOut is one load phase against one server process.
type phaseOut struct {
	res   loadResult
	snap  metrics.Snapshot
	cpu   time.Duration // server CPU time in the first --seconds of the load
	rssMB float64
}

// phase runs the workload's load against sp, scrapes the server, then
// verifies every tenant (fleet) outside the timed window. needP99 fails
// the phase when the ingest or query sample cannot support a p99.
func (b *bench) phase(sp *serverProc, rec *spanRecorder, needP99 bool) (phaseOut, error) {
	var out phaseOut
	genCPU0, err := processCPU(os.Getpid())
	if err != nil {
		return out, err
	}
	steal0, total0, err := hostSteal()
	if err != nil {
		return out, err
	}
	t0 := time.Now()
	cpu := sp.cpuDuring(t0, b.seconds)
	if b.fleet != nil {
		out.res = runFleet(b.fleet, sp.base, b.conns, rec, t0)
	} else {
		out.res = runBulk(b.bulk, b.seed, sp.base, b.conns, b.seconds, rec, t0)
	}
	if out.cpu, err = cpu(); err != nil {
		return out, err
	}
	genCPU1, err := processCPU(os.Getpid())
	if err != nil {
		return out, err
	}
	steal1, total1, err := hostSteal()
	if err != nil {
		return out, err
	}
	if out.rssMB, err = sp.peakRSSMB(); err != nil {
		return out, err
	}
	if out.snap, err = sp.scrape(); err != nil {
		return out, err
	}
	if b.fleet != nil {
		verifyFleet(b.fleet, sp.base, b.conns, &out.res)
	}
	r := out.res
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d requests in %v, %d events, %d failed, %d mismatches; CPU: server %v, generator %v, stolen by the host %.1f%%\n",
		b.workload, r.attempted, r.wall.Round(time.Millisecond), r.events, r.failed, r.mismatches, out.cpu, genCPU1-genCPU0,
		100*ratio(float64(steal1-steal0), float64(total1-total0)))
	for _, l := range []struct {
		name string
		l    latencies
	}{{"ingest", r.ack}, {"query", r.query}} {
		p := highestPercentile(len(l.l))
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d samples, pooled p50 %.3fms, pooled p%v %.3fms\n", l.name, len(l.l), l.l.ms(50), p, l.l.ms(p))
	}
	if needP99 && (!r.ack.supports(99) || !r.query.supports(99)) {
		return out, fmt.Errorf("%d ingest and %d query samples: a p99 needs %d of each", len(r.ack), len(r.query), minLatencySamples)
	}
	if r.events == 0 {
		return out, errors.New("no events acked")
	}
	return out, nil
}

// serve starts a fresh server process with a fresh spill dir.
func (b *bench) serve(name string) (*serverProc, time.Duration, error) {
	return startServer(b.bin, filepath.Join(b.runDir, name), b.extra...)
}

// startMany starts n fresh servers one after another and returns their
// setup times. It stops each, except the last when keep is set, which
// it returns running.
func (b *bench) startMany(name string, n int, keep bool) ([]float64, *serverProc, error) {
	var setups []float64
	for i := 0; i < n; i++ {
		p, d, err := b.serve(fmt.Sprintf("%s-%d", name, i))
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, d.Seconds())
		if keep && i == n-1 {
			return setups, p, nil
		}
		p.stop()
	}
	return setups, nil, nil
}

// endToEnd is the untraced run: one load phase on a fresh server, with
// setup_s the median over setupStarts fresh starts around it.
func (b *bench) endToEnd() (result, error) {
	setups, sp, err := b.startMany("setup", setupStarts/2, true)
	if err != nil {
		return result{}, err
	}
	out, err := b.phase(sp, nil, true)
	sp.stop()
	if err != nil {
		return result{}, err
	}
	after, _, err := b.startMany("setup-after", setupStarts-setupStarts/2, false)
	if err != nil {
		return result{}, err
	}
	setups = append(setups, after...)
	r := out.res
	m := map[string]float64{
		"setup_s":                 median(setups),
		"events_per_s":            r.ack.eventsIn(b.seconds) / b.seconds.Seconds(),
		"ack_p50_ms":              r.ack.ms(50),
		"ack_p99_ms":              r.ack.ms(99),
		"query_p50_ms":            r.query.ms(50),
		"query_p99_ms":            r.query.ms(99),
		"wire_bytes_per_event":    float64(r.wireBytes) / float64(r.events),
		"server_cpu_ns_per_event": float64(out.cpu) / r.ack.eventsIn(b.seconds),
		"server_peak_rss_mb":      out.rssMB,
	}
	return b.result(r, endToEnd, m)
}

// layers is the traced run: an untraced and a traced load phase of half
// the run each, on fresh servers (their difference is the tracing
// overhead), server metrics scraped after the traced phase, then the
// stage ledger.
func (b *bench) layers(tracePath string, st stamp) (result, error) {
	sp, _, err := b.serve("untraced")
	if err != nil {
		return result{}, err
	}
	plain, err := b.phase(sp, nil, false)
	sp.stop()
	if err != nil {
		return result{}, err
	}
	rec := newSpanRecorder(time.Now())
	if sp, _, err = b.serve("traced"); err != nil {
		return result{}, err
	}
	out, err := b.phase(sp, rec, false)
	sp.stop()
	if err != nil {
		return result{}, err
	}

	streams := []*stream{}
	format := trace.FormatV2
	if b.fleet != nil {
		format = trace.FormatV1
		for _, s := range b.fleet.streams {
			if s != nil {
				streams = append(streams, s)
			}
		}
	} else {
		// One corpus per client is as many as run at once.
		streams = b.bulk.corpora[:b.conns]
	}
	l, err := newLedger(streams, format, b.workers, filepath.Join(b.runDir, "ledger"), rec)
	if err != nil {
		return result{}, err
	}
	if err := l.run(); err != nil {
		return result{}, fmt.Errorf("ledger: %w", err)
	}
	if err := rec.writeTrace(tracePath, st); err != nil {
		return result{}, err
	}

	r := out.res
	m := l.out
	c, h := out.snap.Counters, out.snap.Histograms["pift_server_ingest_seconds"]
	busyMS := ratio(h.Sum*1e3, float64(h.Count))
	ingests := float64(r.ingests)
	m["pipeline.backpressure_stalls"] = float64(c["pift_pipeline_backpressure_stalls_total"])
	m["server.busy_ms_mean"] = busyMS
	m["server.queue_wait_ms_mean"] = r.ack.meanMS() - busyMS
	m["server.plumbing_ns_per_event"] = h.Sum*1e9/float64(r.events) - l.analysisNS()
	m["server.parallel_share"] = ratio(float64(c["pift_server_parallel_ingests_total"]), float64(r.bigBodies))
	m["server.parallel_fallbacks"] = float64(c["pift_server_parallel_fallbacks_total"])
	m["server.spool_bytes_per_event"] = float64(c["pift_server_spool_bytes_total"]) / float64(r.events)
	m["server.hydrates_per_request"] = ratio(float64(c["pift_server_hydrates_total"]), ingests)
	m["server.dehydrates_per_request"] = ratio(float64(c["pift_server_dehydrates_total"]), ingests)
	hits, misses := float64(c["pift_server_peek_cache_hits_total"]), float64(c["pift_server_peek_cache_misses_total"])
	m["server.peek_hit_ratio"] = ratio(hits, hits+misses)
	m["server.rejected"] = float64(r.rejected)
	m["gen.late_p99_ms"] = 0
	if len(r.late) > 0 {
		m["gen.late_p99_ms"] = r.late.ms(99)
	}
	m["error_ratio"] = float64(r.failed) / float64(r.attempted)
	m["bench.tracing_overhead_pct"] = 100 * (r.ack.ms(50)/plain.res.ack.ms(50) - 1)
	res, err := b.result(r, perLayer, m)
	res.Correct = res.Correct && b.clean(plain.res)
	return res, err
}

// result assembles the final line from the metric table defs.
func (b *bench) result(r loadResult, defs []metricDef, vals map[string]float64) (result, error) {
	res := result{
		Correct:   b.clean(r),
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricOut, len(defs)),
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	return res, nil
}

// clean reports whether a load phase was correct: no ack or verdict
// differed from the oracle, and, in the closed loops, where a healthy
// server answers every request, no request failed.
func (b *bench) clean(r loadResult) bool {
	if b.bulk != nil && r.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: MISMATCH: %d of %d requests failed\n", r.failed, r.attempted)
		return false
	}
	return r.mismatches == 0
}

// repoRoot returns the repository the benchmark sits in: the parent of
// the working directory, which must hold cmd/piftrun.
func repoRoot() (string, error) {
	root, err := filepath.Abs("..")
	if err != nil {
		return "", err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "piftrun")); err != nil {
		return "", fmt.Errorf("run from the perfbench directory of a checkout (bash perfbench/run.sh): %w", err)
	}
	return root, nil
}

// commitOf names the code under test: the git commit when the tree is a
// git checkout, then a hash over every Go source and module file outside
// the benchmark, which identifies the tree either way.
func commitOf(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() && path != root && (strings.HasPrefix(name, ".") || name == "perfbench") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(name, ".go") || name == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
		h.Write(data)
	}
	id := "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output(); err == nil {
			id = strings.TrimSpace(string(out)) + "+" + id
		}
	}
	return id
}
