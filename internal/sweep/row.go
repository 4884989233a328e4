package sweep

import (
	"time"

	"repro/internal/adaptive"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/imm"
)

// Row is the result of one completed cell — the JSON row `repro run`
// emits, `repro bench` collects into BENCH_*.json, and the sweep journal
// records per cell. All fields except the wall-clock ones (WallMS,
// SetupMS, SamplingMS, RRPerSec) are deterministic for a fixed spec.
type Row struct {
	Algo        string  `json:"algo"`
	Dataset     string  `json:"dataset"`
	Scale       float64 `json:"scale"`
	Model       string  `json:"model"`
	CostSetting string  `json:"cost_setting"`
	N           int     `json:"n"`
	M           int64   `json:"m"`
	K           int     `json:"k"`
	Targets     int     `json:"targets"`
	Budget      float64 `json:"budget"`

	Realizations int     `json:"realizations"`
	AvgProfit    float64 `json:"profit"`
	AvgSpread    float64 `json:"spread"`
	AvgCost      float64 `json:"cost"`
	AvgRounds    float64 `json:"rounds"`
	MinProfit    float64 `json:"min_profit"`
	MaxProfit    float64 `json:"max_profit"`

	RRDrawn     int64 `json:"rr_drawn"`
	RRRequested int64 `json:"rr_requested"`
	// RRReused counts draws avoided by cross-round RR-set reuse (validity
	// filtering); RRPeakBytes is the largest RR-collection footprint any
	// realization reached. Both are deterministic for a fixed seed.
	RRReused    int64 `json:"rr_reused"`
	RRPeakBytes int64 `json:"rr_peak_bytes"`
	// SamplingMS is the wall time spent inside RR generation across all
	// realizations; RRPerSec = RRDrawn / that time is the sampling
	// throughput, the number BENCH files track across PRs.
	SamplingMS int64   `json:"sampling_ms"`
	RRPerSec   float64 `json:"rr_per_sec"`
	// RRVisits / RREdgeTouches are the sampler's exact work counters
	// (node visits and in-edge examinations across all realizations);
	// together they give the bytes-per-edge-touch traffic model:
	// (4·touches + 17·visits) / touches. Deterministic for a fixed seed;
	// zero for exact-oracle and all-targets cells.
	RRVisits      int64 `json:"rr_visits"`
	RREdgeTouches int64 `json:"rr_edge_touches"`
	Fallbacks     int   `json:"fallbacks"`
	// Stopping-rule telemetry (sampling policies only): which controller
	// ran, how many certification looks it took, how many RR batches were
	// actually drawn, and how many rounds certified below the sampling
	// frontier instead of falling back to the point estimate.
	Sampler        string `json:"sampler,omitempty"`
	Attempts       int    `json:"attempts"`
	RRBatches      int    `json:"rr_batches"`
	CertifiedEarly int    `json:"certified_early"`

	ImmTheta          int   `json:"imm_theta"`
	ImmThetaRequested int   `json:"imm_theta_requested"`
	ImmTotalRR        int64 `json:"imm_total_rr"`
	ImmPeakRRBytes    int64 `json:"imm_peak_rr_bytes"`

	// Churn is the temporal-workload schedule ("p@k") of a dynamic cell;
	// Mutations counts the topology deltas applied across all its
	// realizations. Both omitted for static cells.
	Churn     string `json:"churn,omitempty"`
	Mutations int    `json:"mutations,omitempty"`

	Seed    uint64 `json:"seed"`
	SetupMS int64  `json:"setup_ms"` // dataset gen + IMM + cost calibration (shared across a group)
	WallMS  int64  `json:"wall_ms"`  // algorithm execution only

	// Seeds holds each realization's seeded nodes in seeding order, only
	// when Spec.EmitSeeds asked for them (omitted from golden BENCH/SWEEP
	// output otherwise).
	Seeds [][]graph.NodeID `json:"seeds,omitempty"`
}

// stripVolatile zeroes the machine- and schedule-dependent timing fields,
// leaving only the seed-deterministic payload. Canonical journal
// comparisons (crash-recovery test, resume-vs-uninterrupted) go through
// this.
func (r *Row) stripVolatile() {
	r.SamplingMS = 0
	r.RRPerSec = 0
	r.SetupMS = 0
	r.WallMS = 0
}

// Prepared is the algorithm-independent part of a group: the
// materialized graph plus IMM targets and calibrated costs. One Prepared
// is shared by every algorithm cell of its (dataset, model, cost) group.
type Prepared struct {
	G       *graph.Graph
	DS      gen.DatasetSpec
	Inst    *adaptive.Instance
	ImmRes  *imm.Result
	SetupMS int64
}

// Prepare materializes the dataset and builds the experiment instance
// (IMM targets + spread-calibrated costs) for one (dataset, model, cost
// setting) group.
func Prepare(spec *Spec, dataset, model, costSetting string) (*Prepared, error) {
	start := time.Now()
	ds, err := gen.Lookup(dataset)
	if err != nil {
		return nil, err
	}
	g, err := gen.Generate(ds.Config(spec.Scale))
	if err != nil {
		return nil, err
	}
	m, err := ParseModel(model)
	if err != nil {
		return nil, err
	}
	cs, err := ParseCostSetting(costSetting)
	if err != nil {
		return nil, err
	}
	inst, immRes, err := adaptive.Prepare(g, m, adaptive.Setup{
		K:           spec.K,
		CostSetting: cs,
		ImmEps:      spec.ImmEps,
		Seed:        spec.Seed,
		Workers:     spec.Workers,
		Sampler:     spec.Sampler,
	})
	if err != nil {
		return nil, err
	}
	return &Prepared{
		G: g, DS: ds, Inst: inst, ImmRes: immRes,
		SetupMS: time.Since(start).Milliseconds(),
	}, nil
}

// Execute runs one algorithm cell on a prepared group over spec.Reps
// realizations. interrupt, when non-nil, is polled between realizations
// and before every session round (budget/SIGINT checkpointing). Temporal
// cells (Cell.Churn != "none") run through the churn driver instead of
// adaptive.RunExperiment, mutating the topology on schedule.
func Execute(spec *Spec, p *Prepared, cell Cell, interrupt func() error) (*Row, error) {
	start := time.Now()
	cs, err := ParseCostSetting(cell.Cost)
	if err != nil {
		return nil, err
	}
	m, err := ParseModel(cell.Model)
	if err != nil {
		return nil, err
	}
	frac, every, err := ParseChurn(cell.Churn)
	if err != nil {
		return nil, err
	}
	opts := spec.RunOptions()
	opts.Interrupt = interrupt
	var rep *adaptive.Report
	var churn string
	var mutations int
	if every > 0 {
		churn = cell.Churn
		rep, mutations, err = runChurn(spec, p, cell, frac, every, opts)
	} else {
		rep, err = adaptive.RunExperiment(p.Inst, cell.Algo, spec.Reps, opts, spec.Seed+100)
	}
	if err != nil {
		return nil, err
	}
	var seeds [][]graph.NodeID
	if spec.EmitSeeds {
		seeds = make([][]graph.NodeID, len(rep.Runs))
		for i, run := range rep.Runs {
			seeds[i] = run.Seeds
		}
	}
	return &Row{
		Algo:              cell.Algo,
		Dataset:           p.DS.Name,
		Scale:             spec.Scale,
		Model:             m.String(),
		CostSetting:       cs.String(),
		N:                 p.G.N(),
		M:                 p.G.M(),
		K:                 spec.K,
		Targets:           len(p.Inst.Targets),
		Budget:            p.Inst.Costs.Total(p.Inst.Targets),
		Realizations:      rep.Realizations,
		AvgProfit:         rep.AvgProfit,
		AvgSpread:         rep.AvgSpread,
		AvgCost:           rep.AvgCost,
		AvgRounds:         rep.AvgRounds,
		MinProfit:         rep.MinProfit,
		MaxProfit:         rep.MaxProfit,
		RRDrawn:           rep.RRDrawn,
		RRRequested:       rep.RRRequested,
		RRReused:          rep.RRReused,
		RRPeakBytes:       rep.RRPeakBytes,
		SamplingMS:        rep.SamplingNS / 1e6,
		RRPerSec:          rrPerSec(rep.RRDrawn, rep.SamplingNS),
		RRVisits:          rep.RRVisits,
		RREdgeTouches:     rep.RREdgeTouches,
		Fallbacks:         rep.Fallbacks,
		Sampler:           rep.Sampler,
		Attempts:          rep.Attempts,
		RRBatches:         rep.RRBatches,
		CertifiedEarly:    rep.CertifiedEarly,
		Churn:             churn,
		Mutations:         mutations,
		ImmTheta:          p.ImmRes.Theta,
		ImmThetaRequested: p.ImmRes.ThetaRequested,
		ImmTotalRR:        p.ImmRes.TotalRR,
		ImmPeakRRBytes:    p.ImmRes.PeakRRBytes,
		Seed:              spec.Seed,
		SetupMS:           p.SetupMS,
		WallMS:            time.Since(start).Milliseconds(),
		Seeds:             seeds,
	}, nil
}

// rrPerSec converts drawn RR sets and sampling wall time into a
// throughput; zero when no time was recorded (exact-oracle runs).
func rrPerSec(drawn, ns int64) float64 {
	if ns <= 0 {
		return 0
	}
	return float64(drawn) / (float64(ns) / 1e9)
}
