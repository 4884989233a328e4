package adaptive

// Sampling policies: how ADDATP/HATP decide when enough RR sets have been
// drawn to certify a round's seed/stop decision.
const (
	// PolicySequential draws geometrically growing batches and certifies
	// the decision at the first batch boundary an anytime-valid confidence
	// sequence allows — the OPIM-C-style sequential-sampling view of
	// Algorithms 3/4. Default.
	PolicySequential = "seq"
	// PolicyFixed is the paper-faithful attempt loop: each attempt draws to
	// the precomputed θ(ζ_i, δ_i), halving ζ between attempts, with a
	// MaxRefine fallback. Retained for A/B comparison; bit-identical to the
	// pre-controller implementation.
	PolicyFixed = "fixed"
)

// SamplingPolicies lists the accepted Policy values in CLI order.
var SamplingPolicies = []string{PolicySequential, PolicyFixed}

// SamplingOptions configures the RR-sampling policies (ADDATP and HATP).
type SamplingOptions struct {
	// Policy selects the stopping-rule controller: PolicySequential
	// (default) or PolicyFixed.
	Policy string
	// Zeta is the starting additive error on the coverage fraction (the
	// paper's ζ; spread error is n_i·ζ). Refinement halves it. Default 0.05.
	Zeta float64
	// Eps is HATP's relative error ε (ignored by ADDATP). Default 0.2.
	Eps float64
	// Delta is the overall failure probability δ, split over at most |T|
	// rounds by a union bound. Default 0.1.
	Delta float64
	// MaxRefine bounds the ζ-halvings per round (fixed policy); when
	// exhausted the round decides on the point estimate and records a
	// fallback. The sequential policy reuses it to place its θ cap at the
	// same frontier: θ_cap = θ(ζ/2^MaxRefine, δ_round). Default 4.
	MaxRefine int
	// InitialBatch is the sequential policy's first batch size; batches
	// double from there up to the θ cap. Default 2048 — the scale of the
	// fixed policy's first-attempt θ(ζ, δ_round), so the loosest decision
	// the controller can certify rests on a comparably sharp estimate
	// (cross-round carryover makes the floor essentially free).
	InitialBatch int
	// Workers for parallel RR generation; 0 means GOMAXPROCS.
	Workers int
	// NoReuse disables cross-round RR-set reuse: after every residual
	// mutation the collection is regenerated from scratch (and, under the
	// fixed policy, every refinement attempt regenerates its full θ), as
	// the pre-reuse implementation did. Within-round reuse (θ growth on an
	// unchanged residual) is exactly distribution-preserving; cross-round
	// reuse keeps only sets avoiding every deleted node, which is not:
	// even conditioned on its root, a survivor under-represents sets that
	// edges from removed nodes could have reached, and roots whose sets
	// tend to survive are over-represented (see ris.Collection.Filter and
	// TestFilterTiltsSurvivorLaw). NoReuse exists for A/B comparison and
	// debugging.
	NoReuse bool
}

func (o *SamplingOptions) setDefaults() {
	if o.Policy == "" {
		o.Policy = PolicySequential
	}
	if o.Zeta <= 0 {
		o.Zeta = 0.05
	}
	if o.Eps <= 0 {
		o.Eps = 0.2
	}
	if o.Delta <= 0 {
		o.Delta = 0.1
	}
	if o.MaxRefine <= 0 {
		o.MaxRefine = 4
	}
	if o.InitialBatch <= 0 {
		o.InitialBatch = 2048
	}
}

// regime abstracts the concentration bound a sampling policy certifies
// its decisions with: the per-round sample size θ, and high-probability
// spread bounds derived from an observed coverage fraction.
type regime interface {
	name() string
	theta(zeta, delta float64) (int, error)
	// lower/upper convert coverage fraction frac on a residual with
	// nAlive nodes into spread bounds holding with probability ≥ 1−delta
	// at the θ above. Implementations clamp to [0, nAlive].
	lower(frac float64, nAlive int, zeta float64) float64
	upper(frac float64, nAlive int, zeta float64) float64
}

func clampSpread(v float64, nAlive int) float64 {
	if v < 0 {
		return 0
	}
	if n := float64(nAlive); v > n {
		return n
	}
	return v
}
