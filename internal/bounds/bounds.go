package bounds

import (
	"fmt"
	"math"
)

// HoeffdingTheta returns the sample size used in ADDATP's inner loop
// (Algorithm 3, line 8): θ = ln(8/δ) / (2ζ²). The result is rounded up
// and at least 1.
func HoeffdingTheta(zeta, delta float64) (int, error) {
	if zeta <= 0 || zeta >= 1 {
		return 0, fmt.Errorf("bounds: additive error %v outside (0,1)", zeta)
	}
	if delta <= 0 || delta >= 1 {
		return 0, fmt.Errorf("bounds: failure probability %v outside (0,1)", delta)
	}
	theta := math.Log(8/delta) / (2 * zeta * zeta)
	return ceilAtLeast1(theta), nil
}

// HybridTheta returns the sample size used in HATP's inner loop
// (Algorithm 4, line 8): θ = (1+ε/3)² / (2εζ) · ln(4/δ).
func HybridTheta(eps, zeta, delta float64) (int, error) {
	if eps <= 0 || eps >= 1 {
		return 0, fmt.Errorf("bounds: relative error %v outside (0,1)", eps)
	}
	if zeta <= 0 || zeta >= 1 {
		return 0, fmt.Errorf("bounds: additive error %v outside (0,1)", zeta)
	}
	if delta <= 0 || delta >= 1 {
		return 0, fmt.Errorf("bounds: failure probability %v outside (0,1)", delta)
	}
	theta := (1 + eps/3) * (1 + eps/3) / (2 * eps * zeta) * math.Log(4/delta)
	return ceilAtLeast1(theta), nil
}

func ceilAtLeast1(x float64) int {
	v := int(math.Ceil(x))
	if v < 1 {
		v = 1
	}
	return v
}

// Anytime-valid confidence sequences for the sequential sampling
// controller. The fixed-θ loops of Algorithms 3/4 certify a decision only
// at the precomputed sample sizes HoeffdingTheta/HybridTheta; the
// sequential controller instead draws geometrically growing batches and
// asks, at every batch boundary k = 1, 2, ..., whether the current
// estimate already certifies the seed/stop decision. Validity at every
// boundary comes from spending the failure budget across looks
// (SpendGeometric) and evaluating a per-look confidence interval
// (AnytimeWidth) at the spent budget — a union bound over an infinite
// sequence of looks, Σ_k δ_k = δ, in place of the fixed policy's union
// bound over its refinement attempts.

// SpendGeometric returns δ_k, the share of the failure budget δ spent at
// the k-th look of an anytime-valid confidence sequence:
//
//	δ_k = δ / (k(k+1))   so   Σ_{k≥1} δ_k = δ  (telescoping).
//
// The k² decay matches geometrically growing batch sizes: sample size
// doubles per look, so ln(1/δ_k) grows only like 2·ln k while θ_k grows
// like 2^k, and the width penalty of late looks vanishes.
func SpendGeometric(delta float64, k int) float64 {
	if k < 1 || delta <= 0 {
		return 0
	}
	return delta / (float64(k) * float64(k+1))
}

// AnytimeWidth returns a two-sided confidence half-width on the mean of
// theta i.i.d. samples in [0,1] with observed mean frac, holding with
// probability ≥ 1−delta at this single look. It is the tighter of
//
//   - the Hoeffding width  √(ln(4/δ)/(2θ))  (Lemma 4, range-based), and
//   - the empirical-Bernstein width  √(2·v̂·ln(6/δ)/θ) + 3·ln(6/δ)/θ with
//     v̂ = frac(1−frac) (Audibert–Munos–Szepesvári; for the {0,1}-valued
//     coverage indicators v̂ is exactly the plug-in variance),
//
// each evaluated at δ/2 so the minimum is still valid by a union bound.
// The empirical-Bernstein branch is what makes the sequential controller
// cheap for ADDATP: coverage fractions are typically ≪ 1/2, so
// v̂ = frac(1−frac) shrinks the width by ~√(4·v̂) versus Hoeffding —
// variance adaptivity the fixed Lemma 4 schedule cannot exploit.
//
// Callers building a confidence sequence pass delta = SpendGeometric(δ, k)
// at the k-th look; the sequence then holds at every look simultaneously
// with probability ≥ 1−δ.
func AnytimeWidth(theta int, frac, delta float64) float64 {
	return NewAnytimeLook(theta, delta).Width(frac)
}

// AnytimeLook is AnytimeWidth at one look's (θ, δ) with the parts that
// do not depend on the observed mean computed once — the Hoeffding width
// and ln(6/δ) — so a look that certifies many targets pays for the logs
// once, not per target. Width returns exactly what AnytimeWidth does.
type AnytimeLook struct {
	t, hoeffding, logTerm float64
	trivial               bool // θ ≤ 0 or δ outside (0, 1): every width is 1
}

// NewAnytimeLook prepares AnytimeWidth for theta samples at delta.
func NewAnytimeLook(theta int, delta float64) AnytimeLook {
	if theta <= 0 || delta <= 0 || delta >= 1 {
		return AnytimeLook{trivial: true}
	}
	t := float64(theta)
	return AnytimeLook{
		t:         t,
		hoeffding: math.Sqrt(math.Log(4/delta) / (2 * t)),
		logTerm:   math.Log(6 / delta),
	}
}

// Width returns AnytimeWidth(theta, frac, delta) for the look's theta
// and delta.
func (l AnytimeLook) Width(frac float64) float64 {
	if l.trivial {
		return 1
	}
	v := frac * (1 - frac)
	if v < 0 {
		v = 0
	}
	bernstein := math.Sqrt(2*v*l.logTerm/l.t) + 3*l.logTerm/l.t
	return math.Min(1, math.Min(l.hoeffding, bernstein))
}
