package adaptive

import (
	"fmt"

	"repro/internal/cascade"
	"repro/internal/ris"
	"repro/internal/rng"
)

// Algorithm names accepted by Run and the repro CLI.
const (
	AlgoADG        = "adg"
	AlgoADDATP     = "addatp"
	AlgoHATP       = "hatp"
	AlgoNSG        = "nsg"
	AlgoAllTargets = "all-targets"
)

// Algorithms lists every runnable policy in CLI order.
var Algorithms = []string{AlgoADG, AlgoADDATP, AlgoHATP, AlgoNSG, AlgoAllTargets}

// RunOptions bundles the per-algorithm knobs for Run.
type RunOptions struct {
	Sampling SamplingOptions
	// ADGTheta is the number of RR sets ADG's spread estimates rest on
	// each round; default 10_000. On graphs small enough for the exact
	// oracle (m ≤ oracle.MaxExactEdges) ADG uses exact spreads instead.
	ADGTheta int
	// NSGTheta is the nonadaptive greedy's one-shot sample size; default
	// 20_000.
	NSGTheta int
	// Interrupt, when non-nil, is polled by RunExperiment before every
	// realization, by the session before every round, and by the RR draw
	// loops every interrupt stride (see ris.Batcher.SetInterrupt); a
	// non-nil return aborts the run with that error. Sweep cells use it
	// for wall-clock budgets and SIGINT checkpointing, so a cell overruns
	// its budget by at most a stride of RR draws, not a realization.
	Interrupt func() error
	// Batcher, when non-nil, donates warm RR storage (collection arenas,
	// coverage counts, sampler-pool scratch) to the run. ADDATP and HATP
	// draw through it under either sampling policy; other algorithms
	// ignore it. It is Reset before use, so results are independent of
	// what it previously held — the service instance registry uses this to
	// run successive campaigns with zero steady-state allocation.
	Batcher *ris.Batcher
}

func (o *RunOptions) setDefaults() {
	if o.ADGTheta <= 0 {
		o.ADGTheta = 10_000
	}
	if o.NSGTheta <= 0 {
		o.NSGTheta = 20_000
	}
}

// Run executes one named algorithm on one realization environment: a
// NewSession driven to completion.
func Run(inst *Instance, env *Environment, algo string, opts RunOptions, r *rng.RNG) (*RunResult, error) {
	s, err := NewSession(inst, algo, opts, r)
	if err != nil {
		return nil, err
	}
	return s.Drive(env)
}

// Report aggregates an algorithm's runs over several realizations of the
// same instance — the paper's methodology of averaging a fixed pool of
// realizations per configuration.
type Report struct {
	Algorithm    string  `json:"algorithm"`
	Realizations int     `json:"realizations"`
	AvgProfit    float64 `json:"avg_profit"`
	AvgSpread    float64 `json:"avg_spread"`
	AvgCost      float64 `json:"avg_cost"`
	AvgRounds    float64 `json:"avg_rounds"`
	MinProfit    float64 `json:"min_profit"`
	MaxProfit    float64 `json:"max_profit"`
	// Sampling accounting summed across realizations (RRPeakBytes: the
	// maximum); see RunResult.
	ris.Stats
	Fallbacks int `json:"fallbacks"`
	// Stopping-rule telemetry, summed across realizations (see RunResult).
	Attempts       int    `json:"attempts"`
	CertifiedEarly int    `json:"certified_early"`
	Sampler        string `json:"sampler,omitempty"`
	Runs           []*RunResult
}

// Add folds one realization's result into the report: the run is
// appended, the sum-typed aggregates accumulate, and the extrema update.
// Call Finalize once after the last Add to turn the sums into averages.
func (rep *Report) Add(run *RunResult) {
	first := len(rep.Runs) == 0
	rep.Runs = append(rep.Runs, run)
	rep.AvgProfit += run.Profit
	rep.AvgSpread += float64(run.Spread)
	rep.AvgCost += run.Cost
	rep.AvgRounds += float64(run.Rounds)
	rep.Stats.Add(run.Stats)
	rep.Fallbacks += run.Fallbacks
	rep.Attempts += run.Attempts
	rep.CertifiedEarly += run.CertifiedEarly
	if run.Sampler != "" {
		rep.Sampler = run.Sampler
	}
	if first || run.Profit < rep.MinProfit {
		rep.MinProfit = run.Profit
	}
	if first || run.Profit > rep.MaxProfit {
		rep.MaxProfit = run.Profit
	}
}

// Finalize divides the accumulated sums by the number of added runs,
// turning the Avg* fields into averages. Idempotence is not provided —
// call it exactly once, after the last Add.
func (rep *Report) Finalize() {
	f := float64(len(rep.Runs))
	if f == 0 {
		return
	}
	rep.AvgProfit /= f
	rep.AvgSpread /= f
	rep.AvgCost /= f
	rep.AvgRounds /= f
}

// RunExperiment samples `realizations` possible worlds from the instance
// graph (deterministically from seed) and runs the algorithm on each.
func RunExperiment(inst *Instance, algo string, realizations int, opts RunOptions, seed uint64) (*Report, error) {
	if realizations <= 0 {
		return nil, fmt.Errorf("adaptive: need at least one realization")
	}
	root := rng.New(seed)
	rep := &Report{Algorithm: algo, Realizations: realizations}
	for i := 0; i < realizations; i++ {
		if opts.Interrupt != nil {
			if err := opts.Interrupt(); err != nil {
				return nil, fmt.Errorf("adaptive: realization %d/%d: %w", i, realizations, err)
			}
		}
		worldRNG := root.Split()
		algoRNG := root.Split()
		env := NewEnvironment(cascade.Sample(inst.G, inst.Model, worldRNG))
		run, err := Run(inst, env, algo, opts, algoRNG)
		if err != nil {
			return nil, fmt.Errorf("adaptive: realization %d: %w", i, err)
		}
		rep.Add(run)
	}
	rep.Finalize()
	return rep, nil
}
