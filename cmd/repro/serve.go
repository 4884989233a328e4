package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/adaptive"
	"repro/internal/fault"
	"repro/internal/service"
	"repro/internal/sweep"
)

// cmdServe runs the campaign daemon: a warm instance registry plus the
// HTTP campaign API (see internal/service). The spec flags pin the shared
// experiment parameters every served campaign runs under; dataset, model,
// and cost set the defaults a create request falls back to when it omits
// them. On SIGTERM/SIGINT the server stops accepting work, checkpoints
// every open campaign into --checkpoint-dir, and exits — a restarted
// server restores those campaigns bit-identically.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8077", "listen address")
	debugAddr := fs.String("debug-addr", "", "optional second listener for /metrics and /debug/pprof/* (keep it private; empty disables)")
	ckptDir := fs.String("checkpoint-dir", "", "directory for campaign checkpoints (empty disables checkpoint/drain persistence)")
	maxInstances := fs.Int("max-instances", 8, "idle prepared instances kept warm before LRU eviction (0 = unlimited)")
	requestTimeout := fs.Duration("request-timeout", 2*time.Minute, "per-request write deadline (a campaign step on a large instance can be slow)")
	maxSteps := fs.Int("max-steps", 0, "max concurrently executing campaign steps before 429 (0 = 2×GOMAXPROCS)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "total budget for the shutdown checkpoint sweep")
	dataset := fs.String("dataset", "nethept-s", "default dataset for campaigns that omit one")
	model := fs.String("model", "ic", "default diffusion model: ic or lt")
	costName := fs.String("cost", "degree-proportional", "default cost setting")
	var spec sweep.Spec
	specFlags(fs, &spec)
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec.Datasets = []string{*dataset}
	spec.Models = []string{*model}
	spec.CostSettings = []string{*costName}
	spec.Algos = append([]string(nil), adaptive.Algorithms...)
	if err := spec.Validate(); err != nil {
		return err
	}
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			return err
		}
	}

	reg := service.NewRegistry(spec, *maxInstances)
	srv := service.NewServer(reg, *ckptDir)
	srv.SetLogOutput(os.Stderr)
	srv.SetDrainTimeout(*drainTimeout)
	if *maxSteps > 0 {
		srv.SetMaxConcurrentSteps(*maxSteps)
	}
	if spec, err := fault.EnableFromEnv(); err != nil {
		return err
	} else if spec != "" {
		fmt.Fprintf(os.Stderr, "repro serve: FAULT INJECTION ACTIVE (%s=%s)\n", fault.EnvVar, spec)
	}
	// Timeouts make a stalled or malicious client a bounded cost: slowloris
	// headers die in 5s, an idle keep-alive in 2min, and a response that
	// cannot be written within --request-timeout is abandoned.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      *requestTimeout,
		IdleTimeout:       2 * time.Minute,
	}

	// The debug listener carries the operational surface — Prometheus
	// scrape plus the pprof profiles — on its own address, so the campaign
	// API can face clients while profiling stays private. /metrics is also
	// on the main mux; pprof is only here. No WriteTimeout: a 30s CPU
	// profile outlives any sane request deadline by design.
	var debugSrv *http.Server
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.Handle("GET /metrics", srv.Metrics().Reg.Handler())
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		debugSrv = &http.Server{
			Addr:              *debugAddr,
			Handler:           dmux,
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			fmt.Fprintf(os.Stderr, "repro serve: debug listener on %s (/metrics, /debug/pprof/)\n", *debugAddr)
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "repro serve: debug listener: %v\n", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "repro serve: listening on %s (defaults %s/%s/%s@%g, seed %d)\n",
			*addr, *dataset, *model, *costName, spec.Scale, spec.Seed+100)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err // bind failure etc.; ErrServerClosed only after Shutdown
	case <-ctx.Done():
	}
	stop() // second signal kills immediately

	// Stop accepting connections first, then drain: checkpoint and close
	// every open campaign so nothing is lost across the restart.
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(os.Stderr, "repro serve: shutdown: %v\n", err)
	}
	if debugSrv != nil {
		_ = debugSrv.Close() // nothing stateful behind it; no need to drain
	}
	files, err := srv.Drain()
	for _, f := range files {
		fmt.Fprintf(os.Stderr, "repro serve: checkpointed %s\n", f)
	}
	if err != nil {
		return err
	}
	if serveErr := <-errc; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
		return serveErr
	}
	fmt.Fprintln(os.Stderr, "repro serve: drained, exiting")
	return nil
}
