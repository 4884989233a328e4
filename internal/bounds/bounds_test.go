package bounds

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// The tail evaluators of Lemmas 4 and 7 and the inverse-Hoeffding
// half-width, which only the tests below use.

// HoeffdingTail bounds Pr[|X̄ − E[X̄]| ≥ ζ] for θ i.i.d. samples in [0,1]:
// 2·exp(−2θζ²) (Lemma 4 with b−a = 1).
func HoeffdingTail(theta int, zeta float64) float64 {
	if theta <= 0 {
		return 1
	}
	return math.Min(1, 2*math.Exp(-2*float64(theta)*zeta*zeta))
}

// HybridUpperTail bounds Pr[X̄ ≥ (1+ε)µ + ζ] per Lemma 7, eq. (10):
// exp(−2θεζ / (1+ε/3)²).
func HybridUpperTail(theta int, eps, zeta float64) float64 {
	if theta <= 0 {
		return 1
	}
	e := 2 * float64(theta) * eps * zeta / ((1 + eps/3) * (1 + eps/3))
	return math.Min(1, math.Exp(-e))
}

// HybridLowerTail bounds Pr[X̄ ≤ (1−ε)µ − ζ] per Lemma 7, eq. (11):
// exp(−2θεζ).
func HybridLowerTail(theta int, eps, zeta float64) float64 {
	if theta <= 0 {
		return 1
	}
	return math.Min(1, math.Exp(-2*float64(theta)*eps*zeta))
}

// ConfidenceInterval returns the symmetric additive half-width ζ such that
// a mean of θ samples in [0,1] deviates by more than ζ with probability at
// most δ (inverse Hoeffding).
func ConfidenceInterval(theta int, delta float64) float64 {
	if theta <= 0 || delta <= 0 || delta >= 1 {
		return 1
	}
	return math.Sqrt(math.Log(2/delta) / (2 * float64(theta)))
}

func TestHoeffdingThetaFormula(t *testing.T) {
	// θ = ln(8/δ)/(2ζ²) for ζ=0.1, δ=0.01: ln(800)/0.02 ≈ 334.2 → 335.
	got, err := HoeffdingTheta(0.1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	want := int(math.Ceil(math.Log(800) / 0.02))
	if got != want {
		t.Fatalf("HoeffdingTheta = %d, want %d", got, want)
	}
}

func TestHybridThetaFormula(t *testing.T) {
	// θ = (1+ε/3)²/(2εζ)·ln(4/δ).
	eps, zeta, delta := 0.5, 0.05, 0.001
	got, err := HybridTheta(eps, zeta, delta)
	if err != nil {
		t.Fatal(err)
	}
	want := int(math.Ceil((1 + eps/3) * (1 + eps/3) / (2 * eps * zeta) * math.Log(4/delta)))
	if got != want {
		t.Fatalf("HybridTheta = %d, want %d", got, want)
	}
}

func TestThetaErrors(t *testing.T) {
	bad := []struct{ zeta, delta float64 }{
		{0, 0.1}, {1, 0.1}, {-0.1, 0.1}, {0.1, 0}, {0.1, 1}, {0.1, -2},
	}
	for _, c := range bad {
		if _, err := HoeffdingTheta(c.zeta, c.delta); err == nil {
			t.Errorf("HoeffdingTheta(%v,%v) accepted", c.zeta, c.delta)
		}
	}
	if _, err := HybridTheta(0, 0.1, 0.1); err == nil {
		t.Error("HybridTheta accepted eps=0")
	}
	if _, err := HybridTheta(0.1, 2, 0.1); err == nil {
		t.Error("HybridTheta accepted zeta=2")
	}
	if _, err := HybridTheta(0.1, 0.1, 0); err == nil {
		t.Error("HybridTheta accepted delta=0")
	}
}

func TestTailsMonotoneInTheta(t *testing.T) {
	prevH, prevU, prevL := 1.0, 1.0, 1.0
	for _, theta := range []int{1, 10, 100, 1000, 10000} {
		h := HoeffdingTail(theta, 0.05)
		u := HybridUpperTail(theta, 0.2, 0.05)
		l := HybridLowerTail(theta, 0.2, 0.05)
		if h > prevH || u > prevU || l > prevL {
			t.Fatalf("tail grew with theta=%d", theta)
		}
		prevH, prevU, prevL = h, u, l
	}
}

func TestTailsCappedAtOne(t *testing.T) {
	if HoeffdingTail(0, 0.5) != 1 || HybridUpperTail(0, 0.5, 0.5) != 1 || HybridLowerTail(0, 0.5, 0.5) != 1 {
		t.Fatal("theta=0 should give trivial bound 1")
	}
	if HoeffdingTail(1, 1e-9) > 1 {
		t.Fatal("tail exceeded 1")
	}
}

func TestHoeffdingThetaDeliversError(t *testing.T) {
	// Empirical check: with θ = HoeffdingTheta(ζ, δ), the fraction of
	// trials where a Bernoulli mean misses by more than ζ must be ≲ δ.
	zeta, delta := 0.05, 0.1
	theta, err := HoeffdingTheta(zeta, delta)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	const trials = 2000
	p := 0.37
	misses := 0
	for trial := 0; trial < trials; trial++ {
		hits := 0
		for i := 0; i < theta; i++ {
			if r.Coin(p) {
				hits++
			}
		}
		if math.Abs(float64(hits)/float64(theta)-p) > zeta {
			misses++
		}
	}
	if frac := float64(misses) / trials; frac > delta {
		t.Fatalf("miss rate %.4f exceeds δ=%v (θ=%d)", frac, delta, theta)
	}
}

func TestHybridBoundDeliversError(t *testing.T) {
	// With θ = HybridTheta(ε, ζ, δ), Pr[X̄ ≥ (1+ε)µ+ζ or X̄ ≤ (1−ε)µ−ζ]
	// must be ≲ δ (sum of the two one-sided bounds ≤ 2·(δ/4)·2 < δ).
	eps, zeta, delta := 0.3, 0.02, 0.1
	theta, err := HybridTheta(eps, zeta, delta)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(6)
	const trials = 2000
	p := 0.2
	misses := 0
	for trial := 0; trial < trials; trial++ {
		hits := 0
		for i := 0; i < theta; i++ {
			if r.Coin(p) {
				hits++
			}
		}
		x := float64(hits) / float64(theta)
		if x >= (1+eps)*p+zeta || x <= (1-eps)*p-zeta {
			misses++
		}
	}
	if frac := float64(misses) / trials; frac > delta {
		t.Fatalf("miss rate %.4f exceeds δ=%v (θ=%d)", frac, delta, theta)
	}
}

func TestHybridVsAdditiveSampleEfficiency(t *testing.T) {
	// The point of §IV-A: to resolve a unit-scale judgement (niζ ≈ 1, i.e.
	// ζ ≈ 1/n), the additive bound needs Θ(n²) samples while the hybrid
	// bound needs Θ(n/ε). Check the ratio grows with n.
	delta := 0.01
	prevRatio := 0.0
	for _, n := range []int{100, 1000, 10000} {
		zeta := 1 / float64(n)
		add, err := HoeffdingTheta(zeta, delta)
		if err != nil {
			t.Fatal(err)
		}
		hyb, err := HybridTheta(0.1, zeta, delta)
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(add) / float64(hyb)
		if ratio <= prevRatio {
			t.Fatalf("additive/hybrid sample ratio not growing: n=%d ratio=%.1f prev=%.1f",
				n, ratio, prevRatio)
		}
		prevRatio = ratio
	}
	if prevRatio < 50 {
		t.Fatalf("hybrid bound should be ≫ cheaper at n=10000; ratio=%.1f", prevRatio)
	}
}

func TestConfidenceInterval(t *testing.T) {
	// Inverse relationship: HoeffdingTail(θ, CI(θ,δ)) ≈ δ.
	for _, theta := range []int{100, 1000, 10000} {
		delta := 0.05
		ci := ConfidenceInterval(theta, delta)
		tail := HoeffdingTail(theta, ci)
		if math.Abs(tail-delta) > 1e-9 {
			t.Fatalf("θ=%d: tail at CI = %v, want %v", theta, tail, delta)
		}
	}
	if ConfidenceInterval(0, 0.1) != 1 || ConfidenceInterval(10, 0) != 1 {
		t.Fatal("degenerate inputs should give trivial interval 1")
	}
}

func TestSpendGeometricSumsToDelta(t *testing.T) {
	delta := 0.1
	sum := 0.0
	for k := 1; k <= 100000; k++ {
		dk := SpendGeometric(delta, k)
		if dk <= 0 || dk > delta {
			t.Fatalf("δ_%d = %v outside (0, δ]", k, dk)
		}
		sum += dk
	}
	if sum > delta {
		t.Fatalf("Σδ_k = %v exceeds δ = %v", sum, delta)
	}
	if sum < 0.999*delta { // telescoping sum converges to δ
		t.Fatalf("Σδ_k = %v far below δ = %v", sum, delta)
	}
	if SpendGeometric(delta, 0) != 0 || SpendGeometric(0, 3) != 0 {
		t.Fatal("degenerate inputs should spend nothing")
	}
}

func TestAnytimeWidthShrinksWithTheta(t *testing.T) {
	prev := 2.0
	for _, theta := range []int{1, 10, 100, 1000, 100000} {
		w := AnytimeWidth(theta, 0.3, 0.05)
		if w >= prev {
			t.Fatalf("width grew at θ=%d: %v >= %v", theta, w, prev)
		}
		prev = w
	}
	if AnytimeWidth(0, 0.3, 0.05) != 1 || AnytimeWidth(10, 0.3, 0) != 1 {
		t.Fatal("degenerate inputs should give trivial width 1")
	}
}

// TestAnytimeLookMatchesPerTargetFormula: hoisting the logs out of the
// per-target width changes no bit. The reference is the per-call formula
// AnytimeWidth evaluated before AnytimeLook existed.
func TestAnytimeLookMatchesPerTargetFormula(t *testing.T) {
	ref := func(theta int, frac, delta float64) float64 {
		if theta <= 0 || delta <= 0 || delta >= 1 {
			return 1
		}
		tf := float64(theta)
		hoeffding := math.Sqrt(math.Log(4/delta) / (2 * tf))
		v := frac * (1 - frac)
		if v < 0 {
			v = 0
		}
		logTerm := math.Log(6 / delta)
		bernstein := math.Sqrt(2*v*logTerm/tf) + 3*logTerm/tf
		return math.Min(1, math.Min(hoeffding, bernstein))
	}
	for _, theta := range []int{0, 1, 7, 2048, 16384, 131072, 1 << 22} {
		for k := 0; k <= 12; k++ {
			delta := SpendGeometric(0.1/50, k)
			look := NewAnytimeLook(theta, delta)
			for _, frac := range []float64{-0.01, 0, 1e-6, 0.002, 0.01, 0.1, 1.0 / 3, 0.5, 0.9, 1, 1.2} {
				if got, want := look.Width(frac), ref(theta, frac, delta); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("θ=%d k=%d frac=%v: look width %v, per-target formula %v", theta, k, frac, got, want)
				}
			}
		}
	}
}

func TestAnytimeWidthVarianceAdaptive(t *testing.T) {
	// At small coverage fractions the empirical-Bernstein branch must beat
	// the range-based Hoeffding width — the lever that makes the sequential
	// controller cheap for ADDATP.
	theta, delta := 100000, 0.05
	small := AnytimeWidth(theta, 0.01, delta)
	hoeffding := math.Sqrt(math.Log(4/delta) / (2 * float64(theta)))
	if small >= hoeffding/2 {
		t.Fatalf("width %v at frac=0.01 not variance-adaptive (Hoeffding %v)", small, hoeffding)
	}
	// Near frac=1/2 the variance is maximal and Hoeffding should win (the
	// min keeps the bound from degrading there).
	mid := AnytimeWidth(theta, 0.5, delta)
	if mid > hoeffding {
		t.Fatalf("width %v at frac=0.5 exceeds Hoeffding %v", mid, hoeffding)
	}
}

func TestAnytimeSequenceCovers(t *testing.T) {
	// Empirical anytime validity: draw Bernoulli batches doubling in size
	// and check the confidence sequence — width evaluated at
	// SpendGeometric(δ, k) on the k-th look — covers the true mean at
	// EVERY look, in all but ≲ δ of the trials.
	delta := 0.1
	p := 0.15
	r := rng.New(11)
	const trials = 1500
	misses := 0
	for trial := 0; trial < trials; trial++ {
		hits, n := 0, 0
		covered := true
		batch := 32
		for k := 1; k <= 8; k++ {
			for i := 0; i < batch; i++ {
				if r.Coin(p) {
					hits++
				}
			}
			n += batch
			batch *= 2
			frac := float64(hits) / float64(n)
			if math.Abs(frac-p) > AnytimeWidth(n, frac, SpendGeometric(delta, k)) {
				covered = false
			}
		}
		if !covered {
			misses++
		}
	}
	if frac := float64(misses) / trials; frac > delta {
		t.Fatalf("anytime miss rate %.4f exceeds δ=%v", frac, delta)
	}
}
