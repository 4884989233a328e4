package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/adaptive"
	"repro/internal/sweep"
)

// resultRow is one experiment row — sweep.Row, the shared currency of
// `repro run` (stdout), `repro bench` (BENCH_*.json), and `repro sweep`
// (SWEEP_*.jsonl journals).
type resultRow = sweep.Row

// specFlags registers the shared experiment parameters of run, bench,
// and sweep, writing straight into a sweep.Spec.
func specFlags(fs *flag.FlagSet, s *sweep.Spec) {
	fs.IntVar(&s.K, "k", 50, "target set size |T| picked by IMM")
	fs.IntVar(&s.Reps, "reps", 3, "realizations to average over")
	fs.IntVar(&s.ADGTheta, "adg-theta", 10_000, "RR sets per round for ADG on graphs too large for exact spreads")
	fs.IntVar(&s.NSGTheta, "nsg-theta", 20_000, "RR sets for the nonadaptive greedy baseline")
	fs.IntVar(&s.Workers, "workers", 0, "parallel RR-generation workers per cell (0 = GOMAXPROCS)")
	fs.Uint64Var(&s.Seed, "seed", 1, "root seed (runs are deterministic given it)")
	fs.Float64Var(&s.Scale, "scale", 0.1, "dataset scale factor (1 = paper size)")
	fs.Float64Var(&s.Zeta, "zeta", 0.05, "additive error ζ for ADDATP/HATP")
	fs.Float64Var(&s.Eps, "eps", 0.2, "relative error ε for HATP")
	fs.Float64Var(&s.Delta, "delta", 0.1, "failure probability δ for ADDATP/HATP")
	fs.Float64Var(&s.ImmEps, "imm-eps", 0.5, "IMM approximation slack for target selection")
	fs.StringVar(&s.Sampler, "sampler", adaptive.PolicySequential,
		fmt.Sprintf("RR sampling stopping rule for ADDATP/HATP: %v (fixed = paper-faithful attempt loop)", adaptive.SamplingPolicies))
}

// checkSpecFlags rejects explicitly non-positive parameter flags. Every
// specFlags default is positive, so a zero or negative here is always an
// explicit `--reps 0`-style request — which must keep failing fast, as
// it always did; sweep.Spec treats 0 as "use the default" only for
// fields omitted from spec documents.
func checkSpecFlags(s *sweep.Spec) error {
	switch {
	case s.Reps <= 0:
		return fmt.Errorf("reps must be positive, got %d", s.Reps)
	case s.Scale <= 0:
		return fmt.Errorf("scale must be positive, got %g", s.Scale)
	case s.K <= 0:
		return fmt.Errorf("k must be positive, got %d", s.K)
	case s.Zeta <= 0 || s.Eps <= 0 || s.Delta <= 0 || s.ImmEps <= 0:
		return fmt.Errorf("zeta/eps/delta/imm-eps must be positive (got %g/%g/%g/%g)",
			s.Zeta, s.Eps, s.Delta, s.ImmEps)
	case s.ADGTheta <= 0 || s.NSGTheta <= 0:
		return fmt.Errorf("adg-theta/nsg-theta must be positive (got %d/%d)", s.ADGTheta, s.NSGTheta)
	}
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	algo := fs.String("algo", adaptive.AlgoADDATP, fmt.Sprintf("algorithm: %v", adaptive.Algorithms))
	dataset := fs.String("dataset", "nethept-s", "Table II stand-in dataset name")
	model := fs.String("model", "ic", "diffusion model: ic or lt")
	costName := fs.String("cost", "degree-proportional", "cost setting: degree-proportional, uniform, random")
	showSeeds := fs.Bool("show-seeds", false, "include each realization's seed list in the output row")
	var spec sweep.Spec
	specFlags(fs, &spec)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkSpecFlags(&spec); err != nil {
		return err
	}
	spec.Datasets = []string{*dataset}
	spec.Models = []string{*model}
	spec.CostSettings = []string{*costName}
	spec.Algos = []string{*algo}
	spec.EmitSeeds = *showSeeds
	spec.SetDefaults()
	if err := spec.Validate(); err != nil {
		return err
	}
	p, err := sweep.Prepare(&spec, *dataset, *model, *costName)
	if err != nil {
		return err
	}
	row, err := sweep.Execute(&spec, p, sweep.Cell{Dataset: *dataset, Model: *model, Cost: *costName, Algo: *algo}, nil)
	if err != nil {
		return err
	}
	warnShortfall(row)
	return json.NewEncoder(os.Stdout).Encode(row)
}

// warnShortfall surfaces RR-set generation shortfalls on stderr so a
// weakened guarantee never passes silently.
func warnShortfall(row *resultRow) {
	if row.ImmTheta < row.ImmThetaRequested {
		fmt.Fprintf(os.Stderr, "repro: warning: IMM selection used %d/%d requested RR sets; guarantee weakened\n",
			row.ImmTheta, row.ImmThetaRequested)
	}
	if row.RRDrawn < row.RRRequested {
		fmt.Fprintf(os.Stderr, "repro: warning: %s drew %d/%d requested RR sets\n",
			row.Algo, row.RRDrawn, row.RRRequested)
	}
}
