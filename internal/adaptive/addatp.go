package adaptive

import "repro/internal/bounds"

// additiveRegime is ADDATP's concentration regime: pure additive error ζ
// on the coverage fraction, certified by the Hoeffding bound (Lemma 4),
// with the per-round sample size θ = ln(8/δ)/(2ζ²) of Algorithm 3.
type additiveRegime struct{}

func (additiveRegime) name() string { return "addatp" }

func (additiveRegime) theta(zeta, delta float64) (int, error) {
	return bounds.HoeffdingTheta(zeta, delta)
}

func (additiveRegime) lower(frac float64, nAlive int, zeta float64) float64 {
	return clampSpread((frac-zeta)*float64(nAlive), nAlive)
}

func (additiveRegime) upper(frac float64, nAlive int, zeta float64) float64 {
	return clampSpread((frac+zeta)*float64(nAlive), nAlive)
}
