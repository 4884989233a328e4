package oracle

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// TestRISReuseTopsUpShortfall: with reuse on, a residual mutation must
// keep the still-valid RR sets (nonzero Reused), draw only the shortfall,
// and keep estimates close to a from-scratch batcher on a graph where
// the deletion invalidates few sets. "Close" is z = 4 binomial standard
// errors of the difference of the two estimates; θ is large enough that
// this band is within 15% of the estimate, which the test checks so that
// it cannot silently lose its power.
func TestRISReuseTopsUpShortfall(t *testing.T) {
	g, err := gen.Generate(gen.Config{Model: gen.PrefAttach, N: 300, AvgDeg: 5, Directed: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	const theta = 500000
	reusing, fresh := risBatcher(true), risBatcher(false)
	rReusing, rFresh := rng.New(17), rng.New(17)

	res := graph.NewResidual(g)
	const seed = graph.NodeID(5)
	_ = risSpread(t, reusing, res, rReusing, theta, seed)
	if reusing.Stats().RRReused != 0 {
		t.Fatalf("reused %d sets before any mutation", reusing.Stats().RRReused)
	}

	// Delete a low-degree leaf-ish node: most RR sets stay valid.
	victim := graph.NodeID(g.N() - 1)
	res.Remove(victim)
	a := risSpread(t, reusing, res, rReusing, theta, seed)
	resFresh := graph.NewResidual(g)
	resFresh.Remove(victim)
	b := risSpread(t, fresh, resFresh, rFresh, theta, seed)

	if reusing.Stats().RRReused == 0 {
		t.Fatal("no RR sets reused across the residual change")
	}
	if reusing.Stats().RRDrawn >= fresh.Stats().RRDrawn+int64(theta) {
		t.Fatalf("reuse drew %d, fresh %d per version; reuse saved nothing",
			reusing.Stats().RRDrawn, fresh.Stats().RRDrawn)
	}
	if reusing.Stats().RRPeakBytes <= 0 {
		t.Fatalf("peak RR bytes %d", reusing.Stats().RRPeakBytes)
	}
	// Same spread up to sampling noise (both pools are size θ): an
	// estimate x = n·p̂ has variance n²·p̂(1−p̂)/θ.
	n := float64(res.N())
	variance := func(x float64) float64 { p := x / n; return n * n * p * (1 - p) / theta }
	band := 4 * math.Sqrt(variance(a)+variance(b))
	if band > 0.15*math.Max(a, b) {
		t.Fatalf("z=4 band %.3f exceeds 15%% of the estimate %.3f; raise theta", band, math.Max(a, b))
	}
	if math.Abs(a-b) > band {
		t.Fatalf("reused estimate %.3f vs fresh %.3f diverged beyond %.3f", a, b, band)
	}
}

// TestRISDefaultRegeneratesUnbiased: with reuse off (SetReuse(false),
// what ADG runs under NoReuse) the batcher must regenerate from scratch
// per version — the deterministic-chain case where filtered reuse would
// tilt the root mix (only the {0} sets survive deleting the middle node)
// and overestimate the spread.
func TestRISDefaultRegeneratesUnbiased(t *testing.T) {
	g := graph.MustFromEdges(3, true, []graph.Edge{
		{From: 0, To: 1, P: 1}, {From: 1, To: 2, P: 1},
	})
	b := risBatcher(false)
	r := rng.New(29)
	res := graph.NewResidual(g)
	_ = risSpread(t, b, res, r, 5000, 0)
	res.Remove(1)
	got := risSpread(t, b, res, r, 5000, 0)
	if math.Abs(got-1) > 0.05 {
		t.Fatalf("non-reusing batcher estimates %.3f after removal, want ~1", got)
	}
	if b.Stats().RRReused != 0 {
		t.Fatalf("non-reusing batcher reused %d sets", b.Stats().RRReused)
	}
	if b.Stats().RRDrawn != 10000 {
		t.Fatalf("non-reusing batcher drew %d, want 2×5000", b.Stats().RRDrawn)
	}
}
