package adaptive

import (
	"fmt"

	"repro/internal/cascade"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/imm"
	"repro/internal/rng"
)

// Setup configures Prepare: how the target set is chosen and how costs
// are calibrated, mirroring the paper's experimental procedure (§VI-A).
type Setup struct {
	K           int          // target set size for IMM; default 50
	CostSetting cost.Setting // per-node cost distribution
	ImmEps      float64      // IMM's ε; default 0.5 (coarse, fast)
	// LBTheta is the RR sample size of the spread lower bound used as the
	// budget (confidence 1 − lbDelta); default 50_000.
	LBTheta int
	Seed    uint64
	Workers int
	// Sampler is the stopping-rule policy the run will use
	// (PolicySequential default). PolicyFixed also pins IMM's target
	// selection to its pre-batcher fresh-per-guess draws, so a fixed-policy
	// pipeline is end-to-end identical to the paper-faithful
	// implementation.
	Sampler string
}

func (s *Setup) setDefaults() {
	if s.K <= 0 {
		s.K = 50
	}
	if s.ImmEps <= 0 {
		s.ImmEps = 0.5
	}
	if s.LBTheta <= 0 {
		s.LBTheta = 50_000
	}
}

// lbDelta is the failure probability of the spread lower bound E_l[I(T)]
// that becomes the seeding budget c(T), so the paper's ρ(T) ≥ 0
// calibration holds with probability 1 − lbDelta.
const lbDelta = 0.01

// Prepare builds an experiment instance the way the paper does: IMM picks
// the target set T as the top-k influential users, a high-probability
// lower bound E_l[I(T)] of T's spread becomes the total seeding budget
// (so the baseline profit ρ(T) = E[I(T)] − c(T) stays nonnegative), and
// the budget is distributed over T per the cost setting.
func Prepare(g *graph.Graph, model cascade.Model, s Setup) (*Instance, *imm.Result, error) {
	s.setDefaults()
	if g.N() < s.K {
		s.K = g.N()
	}
	immRes, err := imm.Select(g, s.K, imm.Options{
		Eps:     s.ImmEps,
		Model:   model,
		Seed:    s.Seed,
		Workers: s.Workers,
		NoReuse: s.Sampler == PolicyFixed,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("adaptive: target selection: %w", err)
	}
	if len(immRes.Seeds) == 0 {
		return nil, nil, fmt.Errorf("adaptive: IMM selected no targets")
	}
	budget, err := imm.SpreadLowerBound(g, model, immRes.Seeds, s.LBTheta, lbDelta, s.Seed+1, s.Workers)
	if err != nil {
		return nil, nil, fmt.Errorf("adaptive: cost calibration: %w", err)
	}
	if budget <= 0 {
		// Degenerate graphs (or tiny θ) can push the Hoeffding bound to 0;
		// fall back to the weakest sane budget so costs stay positive.
		budget = float64(len(immRes.Seeds))
	}
	var r *rng.RNG
	if s.CostSetting == cost.Random {
		r = rng.New(s.Seed + 2)
	}
	costs, err := cost.Assign(g, immRes.Seeds, budget, s.CostSetting, r)
	if err != nil {
		return nil, nil, fmt.Errorf("adaptive: cost calibration: %w", err)
	}
	return &Instance{G: g, Model: model, Targets: immRes.Seeds, Costs: costs}, immRes, nil
}
