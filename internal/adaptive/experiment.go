package adaptive

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/cascade"
	"repro/internal/gen"
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
	// Batcher, when non-nil, donates warm RR storage (collection arenas
	// and node-to-set index) to the run. ADDATP and HATP draw through it under
	// either sampling policy; other algorithms ignore it. It is Reset before use, so results are independent of
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

// maxWorkers bounds SamplingOptions.Workers in Validate: no host has more
// cores, and a restore must not let a corrupt blob ask for millions of
// sampling goroutines.
const maxWorkers = 1 << 10

// maxTheta bounds ADGTheta and NSGTheta in Validate: 2^24 RR sets is 800
// times NSG's default and already gigabytes of sets on a paper-scale
// graph, and a restore must not let a corrupt blob ask for an RR draw
// that never ends.
const maxTheta = 1 << 24

// Validate checks fully specified options: a known sampling policy,
// finite positive ζ, ε and δ, workers in [0, 1024] (0 means GOMAXPROCS)
// and ADG and NSG sample sizes in [1, 2^24]. sweep.Spec.Validate checks a
// spec's options with it, and ResumeSession a blob's before it replays
// the campaign under them; NewSession instead fills zero values with
// defaults.
func (o RunOptions) Validate() error {
	sp := o.Sampling
	if !slices.Contains(SamplingPolicies, sp.Policy) {
		return fmt.Errorf("adaptive: unknown sampling policy %q (have %v)", sp.Policy, SamplingPolicies)
	}
	for _, p := range [...]struct {
		name string
		v    float64
	}{{"zeta", sp.Zeta}, {"eps", sp.Eps}, {"delta", sp.Delta}} {
		if !(p.v > 0) || math.IsInf(p.v, 1) {
			return fmt.Errorf("adaptive: %s must be finite and positive, got %g", p.name, p.v)
		}
	}
	if sp.Workers < 0 || sp.Workers > maxWorkers {
		return fmt.Errorf("adaptive: workers must be in [0, %d], got %d", maxWorkers, sp.Workers)
	}
	if o.ADGTheta <= 0 || o.NSGTheta <= 0 || o.ADGTheta > maxTheta || o.NSGTheta > maxTheta {
		return fmt.Errorf("adaptive: adg_theta/nsg_theta must be in [1, %d] (got %d/%d)", maxTheta, o.ADGTheta, o.NSGTheta)
	}
	return nil
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
	// Mutations counts the topology deltas applied across all
	// realizations; zero for a static experiment.
	Mutations int `json:"mutations,omitempty"`
	Runs      []*RunResult
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

// Churn is a temporal workload: every Every observed rounds, replace a
// fraction Frac of the current edges (gen.ChurnDeltas: delete Frac·M
// edges, insert as many fresh ones). The zero value is a static graph.
type Churn struct {
	Frac  float64
	Every int
}

// churnSeed derives the delta stream of one (realization, round) from the
// experiment seed, so churning runs are as seed-deterministic as static
// ones.
func churnSeed(seed uint64, rep, round int) uint64 {
	return seed ^ (0x9E3779B97F4A7C15 * (uint64(rep)*1_000_003 + uint64(round)))
}

// RunExperiment samples `realizations` possible worlds from the instance
// graph (deterministically from seed) and runs the algorithm on each.
// Under a non-zero churn the topology changes on schedule mid-campaign:
// the session applies each delta (Session.Mutate, invalidating only the
// RR sets it touches) and the world follows it (Environment.Follow).
// Report.Mutations counts the deltas applied.
func RunExperiment(inst *Instance, algo string, realizations int, churn Churn, opts RunOptions, seed uint64) (*Report, error) {
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
		sess, err := NewSession(inst, algo, opts, algoRNG)
		if err != nil {
			return nil, fmt.Errorf("adaptive: realization %d: %w", i, err)
		}
		for round := 1; ; round++ {
			u, stop, err := sess.NextSeed()
			if err != nil {
				return nil, fmt.Errorf("adaptive: realization %d round %d: %w", i, round, err)
			}
			if stop {
				break
			}
			if err := sess.Observe(env.Observe(u)); err != nil {
				return nil, fmt.Errorf("adaptive: realization %d round %d: %w", i, round, err)
			}
			if churn.Every == 0 || round%churn.Every != 0 {
				continue
			}
			ins, dels := gen.ChurnDeltas(sess.Instance().G, churn.Frac, rng.New(churnSeed(seed, i, round)))
			if len(ins) == 0 && len(dels) == 0 {
				continue
			}
			if _, err := sess.Mutate(ins, dels); err != nil {
				return nil, fmt.Errorf("adaptive: realization %d round %d: mutate: %w", i, round, err)
			}
			env.Follow(sess.Instance().G)
			rep.Mutations++
		}
		rep.Add(sess.Result())
	}
	rep.Finalize()
	return rep, nil
}
