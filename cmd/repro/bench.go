package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/adaptive"
	"repro/internal/sweep"
)

// benchOutput is the BENCH_*.json document: the grid definition plus one
// resultRow per completed cell (failed cells are recorded with an error).
// Model is the single diffusion model of a `repro bench` run; Models is
// set instead when the source is a multi-model sweep journal rendered
// through `repro report`.
type benchOutput struct {
	Datasets     []string     `json:"datasets"`
	Algos        []string     `json:"algos"`
	CostSettings []string     `json:"cost_settings"`
	Model        string       `json:"model,omitempty"`
	Models       []string     `json:"models,omitempty"`
	Scale        float64      `json:"scale"`
	Seed         uint64       `json:"seed"`
	Sampler      string       `json:"sampler,omitempty"`
	WallMS       int64        `json:"wall_ms"`
	Rows         []*resultRow `json:"rows"`
	Errors       []string     `json:"errors,omitempty"`
}

func splitList(s string, all []string) []string {
	if s == "" || s == "all" {
		return all
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// cmdBench is the single-model wrapper over the sweep orchestrator: one
// grid of datasets × cost settings × algorithms under a pinned diffusion
// model, emitted as one BENCH_*.json. The orchestration — shared
// instance preparation per (dataset, cost) group, grid-ordered rows —
// lives in internal/sweep; bench only shapes the output document.
func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	datasets := fs.String("datasets", "nethept-s", "comma-separated datasets (or 'all')")
	algos := fs.String("algos", "all", "comma-separated algorithms (or 'all')")
	costs := fs.String("costs", "all", "comma-separated cost settings (or 'all')")
	model := fs.String("model", "ic", "diffusion model: ic or lt")
	out := fs.String("out", "BENCH_results.json", "output file (BENCH_*.json)")
	var spec sweep.Spec
	specFlags(fs, &spec)
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := sweep.ParseModel(*model)
	if err != nil {
		return err
	}
	spec.Datasets = splitList(*datasets, sweep.AllDatasets())
	spec.Algos = splitList(*algos, adaptive.Algorithms)
	spec.CostSettings = splitList(*costs, sweep.AllCostSettings)
	spec.Models = []string{*model}
	if err := spec.Validate(); err != nil {
		return err
	}
	res, err := sweep.Run(context.Background(), &spec, sweep.Options{Log: os.Stderr})
	if err != nil {
		return err
	}
	for _, row := range res.Rows {
		warnShortfall(row)
	}
	grid := benchOutput{
		Datasets:     spec.Datasets,
		Algos:        spec.Algos,
		CostSettings: spec.CostSettings,
		Model:        m.String(),
		Scale:        spec.Scale,
		Seed:         spec.Seed,
		Sampler:      spec.Sampler,
		WallMS:       res.WallMS,
		Rows:         res.Rows,
		Errors:       res.Errors,
	}
	if err := writeBenchJSON(*out, &grid); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %d rows (%d errors) to %s in %dms\n",
		len(grid.Rows), len(grid.Errors), *out, grid.WallMS)
	return nil
}

// writeBenchJSON writes the grid atomically (writeJSONAtomic: temp file
// in the destination directory, fsync, rename over the target). On any
// failure the rows are dumped to stdout before returning the error, so a
// finished grid is never lost to an output problem — the historical
// failure mode was an os.Create error at the very end discarding every
// computed row.
func writeBenchJSON(path string, grid *benchOutput) error {
	err := writeJSONAtomic(path, grid)
	if err == nil {
		return nil
	}
	fmt.Fprintf(os.Stderr, "bench: writing %s failed (%v); dumping rows to stdout\n", path, err)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if dumpErr := enc.Encode(grid); dumpErr != nil {
		return fmt.Errorf("write %s: %v (stdout dump also failed: %v)", path, err, dumpErr)
	}
	return fmt.Errorf("write %s: %w (rows dumped to stdout)", path, err)
}
