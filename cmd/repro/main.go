// Command repro is the experiment driver for the conf_icde_Huang0XSL20
// reproduction: it materializes the Table II stand-in datasets, runs one
// adaptive/nonadaptive profit algorithm on one configuration, or sweeps a
// benchmark grid — emitting machine-readable JSON rows throughout.
//
// Subcommands:
//
//	repro gen    --dataset nethept-s [--scale 0.1] [--out g.txt]
//	repro run    --algo addatp --dataset nethept-s --model ic --cost degree-proportional
//	repro bench  [--datasets nethept-s] [--algos all] [--costs all] [--out BENCH_results.json]
//	repro sweep  [--datasets all] [--models all] [--churns none,1@2] [--journal SWEEP_x.jsonl] [--resume] [--parallel 4]
//	repro serve  [--addr 127.0.0.1:8077] [--checkpoint-dir ckpts] [--max-instances 8] [--debug-addr 127.0.0.1:8078]
//	repro loadbench [--clients 4] [--duration 5s] [--out BENCH_serve_nethept-s.json]
//	repro report [--out EXPERIMENTS.md] [BENCH_*.json | SWEEP_*.jsonl ...]
package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "bench":
		err = cmdBench(os.Args[2:])
	case "sweep":
		err = cmdSweep(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "loadbench":
		err = cmdLoadBench(os.Args[2:])
	case "report":
		err = cmdReport(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "repro: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "repro: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: repro <subcommand> [flags]

subcommands:
  gen     materialize a Table II stand-in dataset (stats to stdout, graph to --out)
  run     execute one algorithm on one dataset/model/cost configuration
  bench   run a single-model grid of algorithms x datasets x costs into a BENCH_*.json
  sweep   run a resumable datasets x models x costs x algorithms x churns grid with a JSONL journal
  serve   run the campaign daemon: step-wise adaptive sessions over HTTP with checkpoint/restore
  loadbench drive an in-process campaign server with closed-loop clients into BENCH_serve_*.json
  report  render BENCH_*.json / SWEEP_*.jsonl files into EXPERIMENTS.md (Table II layout)

run 'repro <subcommand> -h' for flags.
`)
}

// wallMS renders a wall-clock duration as fractional milliseconds with
// microsecond resolution. Durations.Milliseconds() truncates, so every
// sub-millisecond run — a tiny-fixture gen, a fast loadbench step —
// reported wall_ms: 0 as if it had been free; any positive duration now
// reports at least 0.001.
func wallMS(d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	ms := math.Round(d.Seconds()*1e6) / 1e3
	if ms < 0.001 {
		return 0.001
	}
	return ms
}

// buildDataset materializes a stand-in graph at the given scale.
func buildDataset(name string, scale float64) (*graph.Graph, gen.DatasetSpec, error) {
	spec, err := gen.Lookup(name)
	if err != nil {
		return nil, spec, err
	}
	g, err := gen.Generate(spec.Config(scale))
	if err != nil {
		return nil, spec, err
	}
	return g, spec, nil
}
