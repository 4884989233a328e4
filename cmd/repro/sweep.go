package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/adaptive"
	"repro/internal/sweep"
)

// cmdSweep runs a resumable experiment grid: datasets × models × cost
// settings × algorithms, scheduled by internal/sweep with per-cell
// journaling. SIGINT/SIGTERM checkpoint the journal cleanly; `--resume`
// continues where a previous invocation (or crash) stopped.
func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	specPath := fs.String("spec", "", "JSON sweep spec document; when set, the grid/parameter flags are ignored")
	datasets := fs.String("datasets", "nethept-s", "comma-separated datasets (or 'all')")
	models := fs.String("models", "all", "comma-separated diffusion models (or 'all')")
	costs := fs.String("costs", "all", "comma-separated cost settings (or 'all')")
	algos := fs.String("algos", "all", "comma-separated algorithms (or 'all')")
	churns := fs.String("churns", "none", "comma-separated churn schedules: 'none' and/or 'p@k' (p% edge churn every k rounds)")
	journalPath := fs.String("journal", "SWEEP_results.jsonl", "append-only JSONL journal, fsynced after every cell")
	resume := fs.Bool("resume", false, "continue --journal: reuse its spec (flags are ignored) and skip completed cells")
	parallel := fs.Int("parallel", 1, "cells run concurrently (worker-pool width)")
	budget := fs.Int64("cell-budget-ms", 0, "per-cell wall-clock budget in ms (0 = unbounded; checked between realizations)")
	var flagSpec sweep.Spec
	specFlags(fs, &flagSpec)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var j *sweep.Journal
	var skip map[string]bool
	var spec *sweep.Spec
	if *resume {
		if _, err := os.Stat(*journalPath); err == nil {
			var jspec *sweep.Spec
			j, jspec, skip, err = sweep.Resume(*journalPath)
			if err != nil {
				return err
			}
			spec = jspec
			fmt.Fprintf(os.Stderr, "sweep: resuming %s (%d cell(s) already done)\n", *journalPath, len(skip))
		}
		// No journal yet: --resume on a fresh path degrades to a fresh
		// start, so scripted `repro sweep --resume` loops are idempotent.
	}
	if spec == nil {
		if *specPath != "" {
			data, err := os.ReadFile(*specPath)
			if err != nil {
				return err
			}
			spec = new(sweep.Spec)
			if err := json.Unmarshal(data, spec); err != nil {
				return fmt.Errorf("sweep: parsing %s: %w", *specPath, err)
			}
			spec.SetDefaults()
		} else {
			flagSpec.Datasets = splitList(*datasets, sweep.AllDatasets())
			flagSpec.Models = splitList(*models, sweep.AllModels)
			flagSpec.CostSettings = splitList(*costs, sweep.AllCostSettings)
			flagSpec.Algos = splitList(*algos, adaptive.Algorithms)
			flagSpec.Churns = splitList(*churns, []string{sweep.ChurnNone})
			flagSpec.Parallel = *parallel
			flagSpec.CellBudgetMS = *budget
			spec = &flagSpec
		}
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	if j == nil {
		var err error
		j, err = sweep.CreateJournal(*journalPath, spec)
		if err != nil {
			if os.IsExist(err) {
				return fmt.Errorf("journal %s already exists; pass --resume to continue it, or remove it for a fresh sweep", *journalPath)
			}
			return err
		}
	}
	defer j.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		// First signal: checkpoint (cells stop at the next realization
		// boundary). Restoring default handling immediately after lets a
		// second Ctrl-C force-quit a long in-flight realization — the
		// journal is fsynced per cell, so even that exit resumes cleanly.
		<-ctx.Done()
		stop()
	}()
	res, err := sweep.Run(ctx, spec, sweep.Options{Journal: j, Skip: skip, Log: os.Stderr})
	if err != nil {
		return err
	}
	for _, row := range res.Rows {
		warnShortfall(row)
	}
	for _, e := range res.Errors {
		fmt.Fprintf(os.Stderr, "sweep: error: %s\n", e)
	}
	fmt.Fprintf(os.Stderr, "sweep: %d cell(s) completed, %d skipped, %d error(s) in %dms; journal %s\n",
		len(res.Rows), res.Skipped, len(res.Errors), res.WallMS, *journalPath)
	if res.Interrupted {
		fmt.Fprintf(os.Stderr, "sweep: interrupted — journal checkpointed; continue with: repro sweep --journal %s --resume\n", *journalPath)
	}
	return nil
}
