package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/server"
)

// runServe turns piftrun into the long-lived multi-tenant taint service:
// the analysis core behind an HTTP ingestion boundary, one logical
// tracker session per tenant consuming its stream in order, sessions
// spilling to disk under the memory budget; concurrent tenants are what
// keep the cores busy. The data plane shares one listener with /metrics,
// /healthz and /debug/pprof, so the process is scrapeable out of the box.
func runServe(addr string, scfg server.Config, cfg core.Config) error {
	if addr == "" {
		return errors.New("-serve requires -http ADDR")
	}
	if scfg.SpillDir == "" {
		d, err := os.MkdirTemp("", "pift-spill-*")
		if err != nil {
			return err
		}
		scfg.SpillDir = d
	}
	reg := metrics.NewRegistry()
	scfg.Tracker = cfg
	scfg.Registry = reg
	srv, err := server.New(scfg)
	if err != nil {
		return err
	}
	mux := metrics.NewServeMux(reg)
	srv.Register(mux)

	hs := &http.Server{Addr: addr, Handler: mux}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	_, spilled := srv.SessionCount()
	fmt.Printf("serving taint sessions on %s (tracker %v)\n", addr, cfg)
	fmt.Printf("  spill dir %s (budget %d bytes, %d sessions recovered)\n", scfg.SpillDir, scfg.MemoryBudget, spilled)
	fmt.Printf("  ingest: one in-order stream per session, tenants in parallel\n")
	fmt.Printf("  POST /v1/sessions/{id}/events to ingest; /metrics for series\n")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case <-sig:
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return hs.Shutdown(ctx)
}
