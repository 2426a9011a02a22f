// Command piftrun executes one benchmark application or malware sample
// under PIFT (and optionally the exact DIFT oracle) and reports every sink
// call with both verdicts.
//
// Usage:
//
//	piftrun -list [-frontend dalvik|stackvm]
//	piftrun -app DirectImeiSms [-frontend dalvik] [-ni 13] [-nt 3] [-untaint=true]
//	        [-dift] [-workers N]
//	        [-checkpoint-dir DIR [-checkpoint-every N] [-resume]] [-http :8080]
//
// -frontend selects the guest VM whose benchmark suite supplies the apps:
// the Dalvik-style register VM (default, plus the malware samples) or the
// wasm-style stack VM. Both lower to the same ARM event stream, so every
// analysis option works unchanged on either.
//
//	piftrun -serve -http :8080 [-spill-dir DIR] [-spill-budget BYTES] [-max-streams N]
//
// -workers N routes the event stream through the sharded asynchronous
// analysis pipeline (internal/pipeline) instead of the in-line tracker.
//
// -checkpoint-dir DIR writes a pipeline checkpoint (ckpt-<offset>.pift)
// every -checkpoint-every events; -resume restores the newest one and
// skips the events it already covers, which is sound because app
// execution is deterministic. Both require -workers.
//
// -http ADDR serves the run's metrics registry on ADDR for the duration
// of the process: /metrics (Prometheus text), /metrics.json, /healthz,
// and the standard /debug/pprof endpoints. The process stays alive after
// the run completes (for scraping) until interrupted.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/android"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dift"
	"repro/internal/droidbench"
	"repro/internal/frontend"
	"repro/internal/malware"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/server"
)

func main() {
	list := flag.Bool("list", false, "list available applications")
	feName := flag.String("frontend", "dalvik", "guest front end: dalvik or stackvm")
	app := flag.String("app", "", "application or malware sample name")
	ni := flag.Uint64("ni", 13, "tainting window size NI")
	nt := flag.Int("nt", 3, "max propagations per window NT")
	untaint := flag.Bool("untaint", true, "enable the untainting rule")
	withDift := flag.Bool("dift", false, "also run the exact register-level tracker")
	workers := flag.Int("workers", 0, "analyze on the sharded asynchronous pipeline with N workers (0 = synchronous tracker)")
	ckptDir := flag.String("checkpoint-dir", "", "write periodic pipeline checkpoints into this directory (requires -workers)")
	ckptEvery := flag.Uint64("checkpoint-every", 4096, "events between checkpoints for -checkpoint-dir")
	resume := flag.Bool("resume", false, "restore the newest checkpoint in -checkpoint-dir and skip the events it already covers")
	dump := flag.Bool("dump", false, "print the app's bytecode listing before running")
	modeName := flag.String("mode", "interp", "execution tier: interp, jit, or aot (§4.1)")
	httpAddr := flag.String("http", "", "serve /metrics, /healthz, and /debug/pprof on this address (e.g. :8080); keeps the process alive after the run")
	serve := flag.Bool("serve", false, "run as a long-lived multi-tenant taint service on -http instead of executing one app")
	spillDir := flag.String("spill-dir", "", "serve: directory for dehydrated session snapshots (empty = fresh temp dir)")
	spillBudget := flag.Int64("spill-budget", 64<<20, "serve: resident-bytes budget before cold sessions spill to disk")
	maxStreams := flag.Int("max-streams", 64, "serve: maximum concurrent ingest streams")
	flag.Parse()

	if *serve {
		cfg := core.Config{NI: *ni, NT: *nt, Untaint: *untaint}
		scfg := server.Config{
			SpillDir:     *spillDir,
			MemoryBudget: *spillBudget,
			MaxStreams:   *maxStreams,
		}
		if err := runServe(*httpAddr, scfg, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "piftrun: serve:", err)
			os.Exit(1)
		}
		return
	}

	var mode frontend.Mode
	switch *modeName {
	case "interp":
		mode = frontend.ModeInterp
	case "jit":
		mode = frontend.ModeJIT
	case "aot":
		mode = frontend.ModeAOT
	default:
		fmt.Fprintf(os.Stderr, "piftrun: unknown mode %q\n", *modeName)
		os.Exit(2)
	}

	suite, err := droidbench.SuiteFor(*feName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "piftrun:", err)
		os.Exit(2)
	}
	programs := map[string]frontend.Program{}
	var order []string
	for _, a := range suite.Apps() {
		programs[a.Name] = a.Prog
		order = append(order, a.Name)
	}
	// The malware corpus is Dalvik bytecode; it rides along with the
	// matching front end only.
	if suite.Frontend().Name() == "dalvik" {
		for _, s := range malware.Samples() {
			programs[s.Name] = s.Prog
			order = append(order, s.Name)
		}
	}

	if *list {
		for _, name := range order {
			fmt.Println(name)
		}
		return
	}
	prog, ok := programs[*app]
	if !ok {
		fmt.Fprintf(os.Stderr, "piftrun: unknown app %q (use -list)\n", *app)
		os.Exit(2)
	}

	if *dump {
		fmt.Print(prog.Dump())
		fmt.Println()
	}

	cfg := core.Config{NI: *ni, NT: *nt, Untaint: *untaint}

	// -http instruments every layer of the run against one registry and
	// serves it before the workload starts, so a scraper watching /metrics
	// sees counters move live.
	var reg *metrics.Registry
	if *httpAddr != "" {
		reg = metrics.NewRegistry()
		srv := &http.Server{Addr: *httpAddr, Handler: metrics.NewServeMux(reg)}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "piftrun: http:", err)
				os.Exit(1)
			}
		}()
		fmt.Printf("serving /metrics, /healthz, /debug/pprof on %s\n", *httpAddr)
	}

	// With -workers N the machine's event stream is consumed
	// asynchronously by the sharded pipeline — the paper's decoupled
	// analysis core — instead of the in-line sequential tracker. Both
	// paths end with the same stats and verdicts.
	var (
		pift *core.Tracker
		pipe *pipeline.Pipeline
		sink cpu.EventSink
	)
	if (*ckptDir != "" || *resume) && *workers <= 0 {
		fmt.Fprintln(os.Stderr, "piftrun: -checkpoint-dir and -resume require -workers N")
		os.Exit(2)
	}
	if *resume && *ckptDir == "" {
		fmt.Fprintln(os.Stderr, "piftrun: -resume requires -checkpoint-dir")
		os.Exit(2)
	}
	var ckpt *checkpointer
	switch {
	case *workers > 0:
		popts := pipeline.Options{Workers: *workers, Config: cfg, Metrics: reg}
		if *resume {
			var path string
			var err error
			pipe, path, err = restorePipeline(*ckptDir, popts)
			if err != nil {
				fmt.Fprintln(os.Stderr, "piftrun: resume:", err)
				os.Exit(1)
			}
			fmt.Printf("resumed from %s at event offset %d\n", path, pipe.Offset())
		} else {
			pipe = pipeline.New(popts)
		}
		sink = pipe
		if *ckptDir != "" {
			if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "piftrun:", err)
				os.Exit(1)
			}
			ckpt = &checkpointer{pipe: pipe, dir: *ckptDir, every: *ckptEvery, skip: pipe.Offset()}
			sink = ckpt
		}
	case *workers < 0:
		fmt.Fprintf(os.Stderr, "piftrun: -workers must be >= 0, got %d\n", *workers)
		os.Exit(2)
	default:
		pift = core.NewTracker(cfg, nil)
		if reg != nil {
			pift.SetMetrics(core.NewTrackerMetrics(reg))
		}
		sink = pift
	}
	opts := android.RunOptions{Sinks: []cpu.EventSink{sink}, Mode: mode, Metrics: reg}
	var exact *dift.Tracker
	if *withDift {
		exact = dift.New()
		if reg != nil {
			exact.SetMetrics(dift.NewOracleMetrics(reg))
		}
		opts.Sinks = append(opts.Sinks, exact)
		opts.Hooks = append(opts.Hooks, exact)
	}

	res, runErr := android.Run(prog, opts)
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "piftrun:", runErr)
		os.Exit(1)
	}
	var (
		verdicts []core.SinkVerdict
		st       core.Stats
	)
	if pipe != nil {
		merged := pipe.Close()
		verdicts, st = merged.Verdicts, merged.Stats
	} else {
		verdicts, st = pift.Verdicts(), pift.Stats()
	}
	if ckpt != nil && ckpt.err != nil {
		fmt.Fprintln(os.Stderr, "piftrun: checkpointing stopped:", ckpt.err)
	}

	fmt.Printf("%s: %d instructions, %d sink call(s), tracker %v\n",
		*app, res.Instructions, len(res.Sinks), cfg)
	if pipe != nil {
		fmt.Printf("  analyzed asynchronously on %d pipeline worker(s)\n", pipe.Workers())
	}
	piftByTag := map[int]bool{}
	for _, v := range verdicts {
		piftByTag[v.Tag] = v.Tainted
	}
	diftByTag := map[int]bool{}
	if exact != nil {
		for _, v := range exact.Verdicts() {
			diftByTag[v.Tag] = v.Tainted
		}
	}
	for i, s := range res.Sinks {
		fmt.Printf("  sink %d (%v to %q): payload=%q\n", i+1, s.Kind, s.Dest, s.Payload)
		fmt.Printf("    contains-secret=%v pift-tainted=%v", s.ContainsSecret, piftByTag[s.Tag])
		if exact != nil {
			fmt.Printf(" dift-tainted=%v", diftByTag[s.Tag])
		}
		fmt.Println()
	}
	fmt.Printf("  pift: %d loads, %d stores, %d tainted loads, %d taint ops, %d untaint ops, max %dB/%d ranges\n",
		st.Loads, st.Stores, st.TaintedLoads, st.TaintOps, st.UntaintOps, st.MaxBytes, st.MaxRanges)
	if exact != nil {
		ds := exact.Stats()
		fmt.Printf("  dift: %d instructions shadow-processed (%.1fx PIFT's %d memory events)\n",
			ds.Instructions,
			float64(ds.Instructions)/float64(st.Loads+st.Stores),
			st.Loads+st.Stores)
	}

	if *httpAddr != "" {
		// Keep the endpoints up so the final counters can be scraped;
		// exit on the usual signals.
		fmt.Printf("run complete; still serving %s (interrupt to exit)\n", *httpAddr)
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		<-ch
	}
}
