// Package adaptive implements the paper's (conf_icde_Huang0XSL20)
// adaptive target profit maximization (ATP) algorithms and the
// nonadaptive baselines they are compared against.
//
// The problem (§III): given a target set T (in the experiments, the top-k
// influential users picked by IMM, §VI-A) and a seeding cost c(u) per
// target, select seeds from T one at a time. After each seed the realized
// cascade is observed (full-adoption feedback), the activated nodes are
// deleted, and the next decision is made on the residual graph G_i. The
// objective is the realized profit ρ(S) = I_φ(S) − c(S), which is
// unconstrained (no cardinality budget): the algorithms stop when no
// remaining target has positive expected marginal profit.
//
// Three policies are provided:
//
//   - ADG (adaptive greedy, §V): queries a spread oracle for
//     E[I_{G_i}({u})] exactly (or, on graphs too large to enumerate,
//     estimates it from a fixed θ of RR sets) and seeds the best target
//     while its marginal profit is positive (RunADG).
//   - ADDATP (Algorithm 3): replaces the oracle with RR-set sampling
//     whose additive error ζ on the coverage fraction is controlled by
//     the Hoeffding bound (bounds.HoeffdingTheta, Lemma 4); each round
//     refines ζ ← ζ/2 until the seeding or stopping decision is
//     certified (AlgoADDATP).
//   - HATP (Algorithm 4): the hybrid relative+additive martingale bound
//     (bounds.HybridTheta, Lemma 7) certifies the same decisions with a
//     per-round sample size linear in 1/ζ instead of quadratic
//     (AlgoHATP) — the paper's headline efficiency gain.
//
// Every policy — adaptive and nonadaptive alike — runs as a Session
// (session.go): NextSeed proposes the next target, Observe feeds back the
// realized activations, and the batch entry points Run and RunADG are a
// thin NextSeed/Observe drive loop over a simulated Environment. The
// per-round decision logic lives in per-policy steppers behind the
// Session shell, and a session can be serialized at any round boundary
// (Checkpoint) and rebuilt later (ResumeSession) to continue
// bit-identically — the internal/service campaign registry and `repro
// serve` are built on exactly this surface.
//
// ADDATP and HATP share one stepper, samplingStepper (sampling.go), for
// both sampling policies. It always draws through one ris.Batcher whose
// incremental ris.Coverage tracker answers each look's per-target
// containment counts in O(batch + alive targets), and it owns the whole
// round: draw, score, then seed, stop or draw more. The Policy switch
// sets only each look's sample size, its half-width, the interval
// regime it certifies with, and how often the pool is re-synced with
// the residual:
//
//   - PolicySequential (default) is the sequential sampling controller:
//     the collection grows in geometrically doubling batches, and after
//     every batch an anytime-valid confidence sequence
//     (bounds.AnytimeWidth at the spent budget bounds.SpendGeometric)
//     asks whether the seed/stop decision is already certified. The
//     paper's Lemma 4 (Hoeffding) and Lemma 7 (hybrid martingale) bounds
//     certify a decision only at their precomputed θ(ζ_i, δ_i); the
//     anytime empirical-Bernstein bound generalizes them to every batch
//     boundary simultaneously — and adapts to the coverage variance,
//     which is what collapses ADDATP's θ ∝ 1/ζ² refinement cost (≈9×
//     fewer RR draws on nethept-s at scale 0.1, see EXPERIMENTS.md).
//     Under this policy both algorithms certify with the additive
//     interval; HATP's hybrid regime only sets its θ cap. That choice is
//     made at one site, newSamplingStepper's `cert` field. Undecidable
//     rounds fall back to the point estimate once every target's width
//     reaches ζ_min = ζ/2^maxRefine or the sample reaches the θ cap
//     θ(ζ_min, δ_round). For ADDATP the width test usually binds, at the
//     precision of the fixed loop's final attempt. For HATP the hybrid
//     cap binds first (≈6.9k sets at the defaults against ADDATP's
//     ≈425k), so it decides on the point estimate at a wider additive
//     width than the fixed loop certifies; certifying it with the hybrid
//     bound is an open ROADMAP item.
//   - PolicyFixed replays the paper's attempt loop — draw to
//     θ(ζ_i, δ_i), certify with the algorithm's own regime, halve ζ,
//     maxRefine fallback — and is pinned to the pre-controller
//     implementation's decisions and draw counts by
//     TestFixedPolicyMatchesPreRefactorGolden, so `--sampler fixed` is
//     the paper-faithful baseline in every A/B.
//
// Under both policies one RR collection persists: refinement grows θ on
// an unchanged residual so earlier samples count toward the new target,
// and after a seeding observation the collection is validity-filtered
// (ris.Collection.Filter) and only the shortfall is redrawn. RunResult's
// embedded ris.Stats accounts for the sampling cost, the draws avoided
// by reuse, and the peak RR-storage footprint; Attempts / RRBatches /
// CertifiedEarly / Fallbacks expose the stopping rule's behavior round
// by round.
//
// Nonadaptive baselines (nonadaptive.go): seeding all of T upfront (the
// classic target-set seeding the worked example of Fig. 1 compares
// against) and a nonadaptive greedy that picks a subset of T on RIS
// estimates before any observation.
//
// Prepare (setup.go) builds experiment instances the way §VI-A does: IMM
// picks T, a high-probability spread lower bound E_l[I(T)] becomes the
// seeding budget so ρ(T) ≥ 0, and the budget is split over T per the
// configured cost setting.
package adaptive
