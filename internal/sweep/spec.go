package sweep

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/adaptive"
	"repro/internal/cascade"
	"repro/internal/cost"
	"repro/internal/gen"
)

// Spec is a declarative sweep grid: the cross product of datasets ×
// models × cost settings × algorithms, plus the shared experiment
// parameters every cell runs with. It is the JSON document `repro sweep
// --spec` accepts and the journal's spec record, so a sweep is fully
// described by one value — Table II of the paper is exactly such a grid
// ({4 datasets} × {IC, LT} × {3 cost settings} × {4 algorithms}).
//
// Unlike the historical `repro bench` invocation, the diffusion model is
// a grid dimension, not a pinned parameter.
type Spec struct {
	Datasets     []string `json:"datasets"`
	Models       []string `json:"models"`
	CostSettings []string `json:"cost_settings"`
	Algos        []string `json:"algos"`

	// Churns is the temporal-workload axis: each entry is either "none"
	// (static graph, the historical behaviour) or "p@k" — churn p percent
	// of the edges (deletes plus matching inserts, gen.ChurnDeltas) every k
	// observed rounds, with RR invalidation and top-up instead of a
	// rebuild. Defaults to ["none"], which also keeps cell keys and
	// journals byte-compatible with pre-churn sweeps.
	Churns []string `json:"churns,omitempty"`

	Scale    float64 `json:"scale"`
	K        int     `json:"k"`
	Reps     int     `json:"reps"`
	Seed     uint64  `json:"seed"`
	Zeta     float64 `json:"zeta"`
	Eps      float64 `json:"eps"`
	Delta    float64 `json:"delta"`
	ADGTheta int     `json:"adg_theta"`
	NSGTheta int     `json:"nsg_theta"`
	ImmEps   float64 `json:"imm_eps"`
	Sampler  string  `json:"sampler"`

	// Workers is the per-cell RR-generation parallelism; 0 means
	// GOMAXPROCS. Parallel is the number of cells run
	// concurrently (worker-pool width); 0 or 1 runs cells one at a time.
	// Cell results are seed-deterministic either way — scheduling affects
	// only journal record order, which Canonical normalizes away.
	Workers  int `json:"workers,omitempty"`
	Parallel int `json:"parallel,omitempty"`

	// CellBudgetMS is the per-cell wall-clock budget in milliseconds;
	// 0 means unbounded. The budget is polled between realizations, before
	// every session round, and inside the RR draw loops every interrupt
	// stride (ris.Batcher.SetInterrupt), so a cell overruns by at most
	// a stride of RR draws even mid-batch; a cell that trips it is
	// journaled as failed and retried on resume.
	CellBudgetMS int64 `json:"cell_budget_ms,omitempty"`

	// EmitSeeds includes each realization's seeded nodes (in seeding
	// order) in the emitted rows. Off by default: seed lists are bulky and
	// the BENCH/SWEEP goldens don't carry them; `repro run --show-seeds`
	// and the serve smoke test's seed-equivalence diff turn it on.
	EmitSeeds bool `json:"emit_seeds,omitempty"`
}

// AllDatasets, AllModels, AllCostSettings name the full grid axes.
var (
	AllModels       = []string{"ic", "lt"}
	AllCostSettings = []string{"degree-proportional", "uniform", "random"}
)

// AllDatasets returns the Table II registry names in order.
func AllDatasets() []string {
	out := make([]string, len(gen.Datasets))
	for i, d := range gen.Datasets {
		out[i] = d.Name
	}
	return out
}

// SetDefaults fills exactly-zero fields with the defaults `repro run`
// uses, so a minimal spec document is runnable. Negative values are left
// alone for Validate to reject (a spec that says reps: -1 is a mistake,
// not a request for the default), and Seed is never touched — seed 0 is
// a legitimate seed.
func (s *Spec) SetDefaults() {
	if len(s.Datasets) == 0 {
		s.Datasets = []string{"nethept-s"}
	}
	if len(s.Models) == 0 {
		s.Models = []string{"ic"}
	}
	if len(s.CostSettings) == 0 {
		s.CostSettings = append([]string(nil), AllCostSettings...)
	}
	if len(s.Algos) == 0 {
		s.Algos = append([]string(nil), adaptive.Algorithms...)
	}
	if len(s.Churns) == 0 {
		s.Churns = []string{ChurnNone}
	}
	if s.Scale == 0 {
		s.Scale = 0.1
	}
	if s.K == 0 {
		s.K = 50
	}
	if s.Reps == 0 {
		s.Reps = 3
	}
	if s.Zeta == 0 {
		s.Zeta = 0.05
	}
	if s.Eps == 0 {
		s.Eps = 0.2
	}
	if s.Delta == 0 {
		s.Delta = 0.1
	}
	if s.ADGTheta == 0 {
		s.ADGTheta = 10_000
	}
	if s.NSGTheta == 0 {
		s.NSGTheta = 20_000
	}
	if s.ImmEps == 0 {
		s.ImmEps = 0.5
	}
	if s.Sampler == "" {
		s.Sampler = adaptive.PolicySequential
	}
}

// RunOptions returns the options every run of this spec's cells uses: a
// sweep cell, `repro run`, and a campaign the service starts on it.
func (s *Spec) RunOptions() adaptive.RunOptions {
	return adaptive.RunOptions{
		Sampling: adaptive.SamplingOptions{
			Policy:  s.Sampler,
			Zeta:    s.Zeta,
			Eps:     s.Eps,
			Delta:   s.Delta,
			Workers: s.Workers,
		},
		ADGTheta: s.ADGTheta,
		NSGTheta: s.NSGTheta,
	}
}

// Validate rejects unknown axis values before any expensive preparation.
func (s *Spec) Validate() error {
	if len(s.Datasets) == 0 || len(s.Models) == 0 || len(s.CostSettings) == 0 || len(s.Algos) == 0 {
		return fmt.Errorf("sweep: empty grid axis (datasets/models/cost_settings/algos must be non-empty)")
	}
	for _, d := range s.Datasets {
		if _, err := gen.Lookup(d); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	for _, m := range s.Models {
		if _, err := ParseModel(m); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	for _, c := range s.CostSettings {
		if _, err := ParseCostSetting(c); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	for _, a := range s.Algos {
		ok := false
		for _, known := range adaptive.Algorithms {
			if a == known {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("sweep: unknown algorithm %q (have %v)", a, adaptive.Algorithms)
		}
	}
	for _, ch := range s.Churns {
		if _, _, err := ParseChurn(ch); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	if s.Scale <= 0 {
		return fmt.Errorf("sweep: scale must be positive, got %g", s.Scale)
	}
	if s.Reps <= 0 {
		return fmt.Errorf("sweep: reps must be positive, got %d", s.Reps)
	}
	if s.K <= 0 {
		return fmt.Errorf("sweep: k must be positive, got %d", s.K)
	}
	if err := s.RunOptions().Validate(); err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	if !(s.ImmEps > 0) || math.IsInf(s.ImmEps, 1) {
		return fmt.Errorf("sweep: imm_eps must be finite and positive, got %g", s.ImmEps)
	}
	return nil
}

// Cell is one grid point. Its Key is the journal identity, so completed
// cells can be skipped on resume.
type Cell struct {
	Dataset string
	Model   string
	Cost    string
	Algo    string
	// Churn is the temporal-workload schedule ("p@k"), or "none"/"" for a
	// static cell.
	Churn string
}

// Key returns the canonical cell identity "dataset/model/cost/algo",
// with "/churn=p@k" appended for temporal cells only — static cells keep
// the historical four-segment key, so pre-churn journals resume cleanly.
func (c Cell) Key() string {
	k := c.Dataset + "/" + c.Model + "/" + c.Cost + "/" + c.Algo
	if c.Churn != "" && c.Churn != ChurnNone {
		k += "/churn=" + c.Churn
	}
	return k
}

// GroupKey identifies the prepared instance the cell shares with its
// siblings: graph, IMM targets, and calibrated costs depend on
// (dataset, model, cost setting) but not on the algorithm.
func (c Cell) GroupKey() string {
	return c.Dataset + "/" + c.Model + "/" + c.Cost
}

// Cells enumerates the grid in canonical order: dataset-major, then
// model, cost setting, algorithm, churn schedule. Canonical journals
// list cells in this order; group-mates are adjacent so a prepared
// instance is shared by consecutive cells (churn never re-prepares —
// temporal cells mutate immutable per-session copies of the group graph).
func (s *Spec) Cells() []Cell {
	churns := s.Churns
	if len(churns) == 0 {
		churns = []string{ChurnNone}
	}
	out := make([]Cell, 0, len(s.Datasets)*len(s.Models)*len(s.CostSettings)*len(s.Algos)*len(churns))
	for _, d := range s.Datasets {
		for _, m := range s.Models {
			for _, c := range s.CostSettings {
				for _, a := range s.Algos {
					for _, ch := range churns {
						out = append(out, Cell{Dataset: d, Model: m, Cost: c, Algo: a, Churn: ch})
					}
				}
			}
		}
	}
	return out
}

// ParseModel maps a model name to its cascade.Model.
func ParseModel(s string) (cascade.Model, error) {
	switch strings.ToLower(s) {
	case "ic":
		return cascade.IC, nil
	case "lt":
		return cascade.LT, nil
	default:
		return 0, fmt.Errorf("unknown diffusion model %q (have ic, lt)", s)
	}
}

// ChurnNone is the churn schedule of a static cell: no topology deltas.
const ChurnNone = "none"

// ParseChurn parses a churn schedule. "none" (or "") means a static
// graph and returns (0, 0). "p@k" means: every k observed rounds, delete
// a uniform random p percent of the edges and insert the same number of
// fresh ones (gen.ChurnDeltas), so the edge count is conserved. p may be
// fractional ("0.5@1"); k must be a positive integer.
func ParseChurn(s string) (frac float64, every int, err error) {
	if s == "" || strings.EqualFold(s, ChurnNone) {
		return 0, 0, nil
	}
	at := strings.IndexByte(s, '@')
	if at < 0 {
		return 0, 0, fmt.Errorf("churn schedule %q: want \"p@k\" (p%% of edges every k rounds) or %q", s, ChurnNone)
	}
	pct, perr := strconv.ParseFloat(s[:at], 64)
	if perr != nil || pct <= 0 || pct > 100 {
		return 0, 0, fmt.Errorf("churn schedule %q: percentage must be in (0, 100], got %q", s, s[:at])
	}
	every, kerr := strconv.Atoi(s[at+1:])
	if kerr != nil || every <= 0 {
		return 0, 0, fmt.Errorf("churn schedule %q: round interval must be a positive integer, got %q", s, s[at+1:])
	}
	return pct / 100, every, nil
}

// ParseCostSetting maps a cost-setting name to its cost.Setting.
func ParseCostSetting(s string) (cost.Setting, error) {
	switch strings.ToLower(s) {
	case "degree-proportional", "degree":
		return cost.DegreeProportional, nil
	case "uniform":
		return cost.Uniform, nil
	case "random":
		return cost.Random, nil
	default:
		return 0, fmt.Errorf("unknown cost setting %q (have degree-proportional, uniform, random)", s)
	}
}
