// Package bounds implements the concentration inequalities the paper's
// (conf_icde_Huang0XSL20) sampling algorithms rest on:
//
//   - the Hoeffding inequality (Lemma 4), which certifies ADDATP's
//     additive-error decisions with the per-round sample size
//     θ = ln(8/δ)/(2ζ²) read off Algorithm 3 (HoeffdingTheta);
//   - the relative+additive martingale bounds (Lemma 7, eqs. 10–11),
//     which certify HATP's hybrid-error decisions with
//     θ = (1+ε/3)²/(2εζ)·ln(4/δ) read off Algorithm 4 (HybridTheta) —
//     linear in 1/ζ where Hoeffding is quadratic, the reason HATP's
//     refinement is cheap.
//
// The fixed-θ lemmas certify a decision only at their precomputed sample
// sizes. For the sequential sampling controller (the seq-policy session
// stepper in package adaptive) the package additionally provides
// anytime-valid confidence sequences:
// SpendGeometric splits a failure budget δ across an infinite sequence of
// looks (δ_k = δ/(k(k+1))), and AnytimeWidth evaluates a per-look
// two-sided half-width as the tighter of Hoeffding and empirical
// Bernstein — variance-adaptive where Lemma 4 is range-bound, which is
// what makes sequential ADDATP cheap at small coverage fractions.
//
// The tail evaluators and the inverse-Hoeffding half-width the tests check
// these against live in the package's tests.
package bounds
