package adaptive

import "repro/internal/bounds"

// hybridRegime is HATP's concentration regime: relative error ε plus
// additive error ζ, certified by the martingale bounds of Lemma 7 with
// the per-round sample size θ = (1+ε/3)²/(2εζ)·ln(4/δ) of Algorithm 4.
// Because θ scales as 1/ζ rather than ADDATP's 1/ζ², refinement is far
// cheaper at small ζ — the paper's headline efficiency gain.
//
// With probability ≥ 1−δ the coverage fraction X̄ satisfies
// (1−ε)µ − ζ < X̄ < (1+ε)µ + ζ, hence µ ∈ ((X̄−ζ)/(1+ε), (X̄+ζ)/(1−ε)).
type hybridRegime struct{ eps float64 }

func (hybridRegime) name() string { return "hatp" }

func (h hybridRegime) theta(zeta, delta float64) (int, error) {
	return bounds.HybridTheta(h.eps, zeta, delta)
}

func (h hybridRegime) lower(frac float64, nAlive int, zeta float64) float64 {
	return clampSpread((frac-zeta)/(1+h.eps)*float64(nAlive), nAlive)
}

func (h hybridRegime) upper(frac float64, nAlive int, zeta float64) float64 {
	return clampSpread((frac+zeta)/(1-h.eps)*float64(nAlive), nAlive)
}
