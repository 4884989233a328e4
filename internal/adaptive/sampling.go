package adaptive

import (
	"fmt"
	"math"

	"repro/internal/bounds"
	"repro/internal/graph"
	"repro/internal/ris"
)

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
	// maxRefine fallback. Retained for A/B comparison; pinned to the
	// pre-controller implementation's decisions and draws.
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
}

const (
	// maxRefine bounds the ζ-halvings per round (fixed policy); when
	// exhausted the round decides on the point estimate and records a
	// fallback. The sequential policy places its θ cap at the same
	// frontier: θ_cap = θ(ζ/2^maxRefine, δ_round).
	maxRefine = 4
	// initialBatch is the sequential policy's first batch size; batches
	// double from there up to the θ cap. It is the scale of the fixed
	// policy's first-attempt θ(ζ, δ_round), so the loosest decision the
	// controller can certify rests on a comparably sharp estimate
	// (cross-round carryover makes the floor essentially free).
	initialBatch = 2048
)

// regime abstracts the concentration bound a sampling policy certifies
// its decisions with: the per-round sample size θ, and high-probability
// spread bounds derived from an observed coverage fraction.
type regime interface {
	name() string
	theta(zeta, delta float64) (int, error)
	// lower/upper convert coverage fraction frac on a residual with
	// nAlive nodes into spread bounds at half-width zeta on the fraction:
	// the fixed attempt's ζ (holding with probability ≥ 1−delta at the θ
	// above), or a sequential look's anytime width. Implementations clamp
	// to [0, nAlive].
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

// samplingStepper is the round body of Algorithms 3 (ADDATP) and 4
// (HATP) under both sampling policies. Each round estimates every alive
// target's marginal profit n_i·Cov(u)/n − c(u) from the RR sets of one
// ris.Batcher on the residual, then seeds the best target if its profit
// lower bound is positive, stops if every upper bound is ≤ 0, and
// otherwise draws more. Once every half-width is at most ζ_min =
// ζ/2^maxRefine, or the sample has reached θ_cap, it decides on the
// point estimate and records a fallback, so a marginal profit sitting
// exactly at 0 cannot loop forever. The policy sets four things:
//
//   - each look's sample size: initialBatch doubling to θ_cap =
//     θ(ζ_min, δ_round) under PolicySequential; θ(ζ_k, δ_round) with
//     ζ_k = ζ/2^k under PolicyFixed;
//   - the half-width: bounds.AnytimeWidth at the look's spent δ
//     (sequential); ζ_k (fixed);
//   - the interval regime (cert): additive for both algorithms under
//     PolicySequential, the algorithm's own under PolicyFixed;
//   - the Sync cadence: once per round (sequential), once per attempt
//     (fixed), so NoReuse regenerates every fixed attempt from scratch.
//
// Under PolicyFixed θ_cap is unbounded and halving ζ is exact in binary
// floating point, so the shared frontier test is attempt ≥ maxRefine.
type samplingStepper struct {
	reg   regime // the algorithm's θ(ζ, δ): the fixed schedule, the sequential cap
	cert  regime // the interval a decision is certified with
	opts  SamplingOptions
	fixed bool
	b     *ris.Batcher

	deltaRound float64
	zetaMin    float64
	capTheta   int

	fallbacks, attempts, certifiedEarly int
	// reused counts draws avoided: at every Sync, the carried-over sets
	// up to that look's target, plus the survivors of each topology delta.
	reused int64
}

// newSamplingStepper builds the stepper for algo under opts.Policy. warm,
// when non-nil, donates its storage (collection arenas, coverage counts,
// pool scratch); it is Reset first, so campaign results are independent
// of what it previously held.
func newSamplingStepper(inst *Instance, algo string, opts SamplingOptions, warm *ris.Batcher) (*samplingStepper, error) {
	// The algorithm's concentration regime: ADDATP's additive bound
	// (Lemma 4) or HATP's hybrid one (Lemma 7).
	var reg regime = additiveRegime{}
	if algo == AlgoHATP {
		reg = hybridRegime{eps: opts.Eps}
	}
	st := &samplingStepper{reg: reg, opts: opts, zetaMin: opts.Zeta / math.Exp2(maxRefine)}
	switch opts.Policy {
	case PolicySequential:
		// Union bound over rounds only: the run seeds at most |T| targets,
		// and within a round the confidence sequence spends its δ_round
		// across looks by itself.
		st.deltaRound = opts.Delta / float64(len(inst.Targets))
		capTheta, err := reg.theta(st.zetaMin, st.deltaRound)
		if err != nil {
			return nil, fmt.Errorf("adaptive: %s: %w", reg.name(), err)
		}
		st.capTheta = capTheta
		// Both algorithms certify with the additive anytime bound here;
		// HATP's hybrid regime only sets its θ cap.
		st.cert = additiveRegime{}
	case PolicyFixed:
		// Union bound: each round may resample up to maxRefine+1 times and
		// the run lasts at most |T| rounds.
		st.deltaRound = opts.Delta / float64(len(inst.Targets)*(maxRefine+1))
		st.capTheta = math.MaxInt
		st.cert = reg
		st.fixed = true
	default:
		return nil, fmt.Errorf("adaptive: unknown sampling policy %q (have %v)", opts.Policy, SamplingPolicies)
	}
	st.b = warm
	if st.b != nil {
		if st.b.Model() != inst.Model {
			return nil, fmt.Errorf("adaptive: warm batcher draws under %v, instance needs %v", st.b.Model(), inst.Model)
		}
		st.b.Reset()
	} else {
		st.b = ris.NewBatcher(inst.Model)
	}
	st.b.SetReuse(!opts.NoReuse)
	return st, nil
}

func (st *samplingStepper) setInterrupt(f func() error) { st.b.SetInterrupt(f) }

func (st *samplingStepper) mutate(_ *Instance, touched []graph.NodeID) error {
	// Survivors are valid RR sets of the new graph at the unchanged
	// residual version, so the next Sync keeps them and GrowTo draws only
	// the shortfall. Under NoReuse this keeps and counts nothing.
	st.reused += int64(st.b.Invalidate(touched))
	return nil
}

func (st *samplingStepper) next(s *Session) (graph.NodeID, bool, error) {
	res := s.res
	s.alive = s.inst.aliveTargets(res, s.alive)
	if len(s.alive) == 0 {
		return 0, true, nil
	}
	nAlive := res.N()
	zeta := st.opts.Zeta // ζ_k, the fixed policy's half-width at attempt k
	target := 0
	for k := 1; ; k++ {
		if st.fixed || k == 1 {
			kept := st.b.Sync(res)
			if st.fixed {
				theta, err := st.reg.theta(zeta, st.deltaRound)
				if err != nil {
					return 0, true, fmt.Errorf("adaptive: %s round %d: %w", st.reg.name(), len(s.seeds)+1, err)
				}
				target = theta
			} else {
				target = min(max(initialBatch, kept), st.capTheta)
			}
			st.reused += int64(min(kept, target))
		}
		n, err := st.b.GrowTo(res, s.r, target, st.opts.Workers)
		if err != nil {
			return 0, true, err
		}
		st.attempts++
		if n == 0 {
			return 0, true, nil
		}
		// The effective sample size is the whole collection, which can
		// exceed this look's target when a round starts from a larger
		// carry-over. Within-round growth keeps the certificates exact
		// (same residual, independent samples). Sets kept across rounds
		// are biased (see ris.Collection.Filter): each is an old-residual
		// RR set conditioned on avoiding the removed nodes, and their roots
		// over-represent those whose sets survive, so cross-round
		// certificates are approximate — NoReuse restores the paper's
		// from-scratch sampling when that matters.
		deltaK := bounds.SpendGeometric(st.deltaRound, k)
		w := zeta
		best := graph.NodeID(-1)
		bestProfit, bestLower := 0.0, 0.0
		maxUpper, maxWidth := 0.0, 0.0
		for _, u := range s.alive {
			frac := float64(st.b.Count(u)) / float64(n)
			if !st.fixed {
				w = bounds.AnytimeWidth(n, frac, deltaK)
			}
			cost := s.inst.Costs.Cost(u)
			profit := clampSpread(frac*float64(nAlive), nAlive) - cost
			if best < 0 || profit > bestProfit || (profit == bestProfit && u < best) {
				best, bestProfit = u, profit
				bestLower = st.cert.lower(frac, nAlive, w) - cost
			}
			if up := st.cert.upper(frac, nAlive, w) - cost; up > maxUpper {
				maxUpper = up
			}
			maxWidth = max(maxWidth, w)
		}
		early := maxWidth > st.zetaMin && n < st.capTheta
		switch {
		case bestLower > 0:
			// Seeding certified.
			if early {
				st.certifiedEarly++
			}
			return best, false, nil
		case maxUpper <= 0:
			// Stopping certified: no target can have positive profit.
			if early {
				st.certifiedEarly++
			}
			return 0, true, nil
		case !early:
			// Precision frontier reached: every estimate is within ζ_min,
			// the fixed loop's terminal precision, so decide on the point
			// estimate.
			st.fallbacks++
			if bestProfit > 0 {
				return best, false, nil
			}
			return 0, true, nil
		case st.fixed:
			zeta /= 2
		default:
			target = min(2*n, st.capTheta)
		}
	}
}

func (st *samplingStepper) finishInto(r *RunResult) {
	r.Stats = st.b.Stats()
	r.RRReused = st.reused
	r.Fallbacks = st.fallbacks
	r.Attempts = st.attempts
	r.CertifiedEarly = st.certifiedEarly
	r.Sampler = st.opts.Policy
}
