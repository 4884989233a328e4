package oracle

import (
	"math"
	"testing"

	"repro/internal/cascade"
	"repro/internal/graph"
	"repro/internal/ris"
	"repro/internal/rng"
)

func chainGraph(p1, p2 float64) *graph.Graph {
	return graph.MustFromEdges(3, true, []graph.Edge{
		{From: 0, To: 1, P: p1}, {From: 1, To: 2, P: p2},
	})
}

func fig1Graph() *graph.Graph {
	return graph.MustFromEdges(7, true, []graph.Edge{
		{From: 0, To: 1, P: 0.4},
		{From: 1, To: 2, P: 0.8},
		{From: 1, To: 3, P: 0.7},
		{From: 3, To: 2, P: 0.6},
		{From: 2, To: 4, P: 0.5},
		{From: 4, To: 5, P: 0.3},
		{From: 5, To: 4, P: 0.7},
		{From: 5, To: 6, P: 0.6},
		{From: 6, To: 0, P: 0.2},
		{From: 4, To: 0, P: 0.7},
	})
}

func TestExactChain(t *testing.T) {
	p1, p2 := 0.6, 0.5
	g := chainGraph(p1, p2)
	o, err := NewExact(g)
	if err != nil {
		t.Fatal(err)
	}
	res := graph.NewResidual(g)
	got := o.ExpectedSpread(res, []graph.NodeID{0})
	want := 1 + p1 + p1*p2
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("exact = %v, want %v", got, want)
	}
	if got := o.ExpectedSpread(res, nil); got != 0 {
		t.Fatalf("exact of empty set = %v", got)
	}
	if got := o.ExpectedSpread(res, []graph.NodeID{2}); got != 1 {
		t.Fatalf("exact of sink = %v, want 1", got)
	}
}

func TestExactFig1TargetSet(t *testing.T) {
	// Hand computation for seeds {v1,v2,v6} (see cascade tests): 6.0166.
	g := fig1Graph()
	o, err := NewExact(g)
	if err != nil {
		t.Fatal(err)
	}
	got := o.ExpectedSpread(graph.NewResidual(g), []graph.NodeID{0, 1, 5})
	if math.Abs(got-6.0166) > 1e-10 {
		t.Fatalf("exact E[I({v1,v2,v6})] = %.6f, want 6.0166", got)
	}
}

func TestExactOnResidual(t *testing.T) {
	g := chainGraph(1, 1)
	o, _ := NewExact(g)
	res := graph.NewResidual(g)
	res.Remove(1)
	if got := o.ExpectedSpread(res, []graph.NodeID{0}); got != 1 {
		t.Fatalf("residual exact = %v, want 1 (relay removed)", got)
	}
	if got := o.ExpectedSpread(res, []graph.NodeID{1}); got != 0 {
		t.Fatalf("dead seed exact = %v, want 0", got)
	}
}

func TestExactRefusesLargeGraphs(t *testing.T) {
	b := graph.NewBuilder(30, true)
	for i := 0; i < 25; i++ {
		_ = b.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 0.5)
	}
	if _, err := NewExact(b.Build()); err == nil {
		t.Fatal("NewExact accepted m=25")
	}
}

func TestExactPanicsOnForeignResidual(t *testing.T) {
	o, _ := NewExact(chainGraph(0.5, 0.5))
	other := graph.NewResidual(chainGraph(0.3, 0.3))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on foreign residual")
		}
	}()
	o.ExpectedSpread(other, []graph.NodeID{0})
}

// risBatcher is an IC RR-set batcher counting the coverage of targets on
// g, configured as ADG's sampled rounds configure theirs.
func risBatcher(g *graph.Graph, reuse bool, targets ...graph.NodeID) *ris.Batcher {
	b := ris.NewBatcher(cascade.IC)
	b.SetReuse(reuse)
	b.SetTargets(ris.NewTargetIndex(g.N(), targets))
	return b
}

// risDraw brings b to theta RR sets of res (Sync, then GrowTo), as one
// sampled ADG round does, and returns the collection size.
func risDraw(t *testing.T, b *ris.Batcher, res *graph.Residual, r *rng.RNG, theta int) int {
	t.Helper()
	b.Sync(res)
	n, err := b.GrowTo(res, r, theta, 0)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// risSpread draws as risDraw and returns the estimate n_i·Count(u)/θ.
func risSpread(t *testing.T, b *ris.Batcher, res *graph.Residual, r *rng.RNG, theta int, u graph.NodeID) float64 {
	t.Helper()
	theta = risDraw(t, b, res, r, theta)
	return ris.EstimateSpread(b.Count(u), theta, res.N())
}

// TestRISMatchesExact: the RR-set estimate of every single-node spread,
// and of a seed set's through the collection, agrees with enumeration.
func TestRISMatchesExact(t *testing.T) {
	g := fig1Graph()
	exact, _ := NewExact(g)
	every := make([]graph.NodeID, g.N())
	for u := range every {
		every[u] = graph.NodeID(u)
	}
	b := risBatcher(g, false, every...)
	res := graph.NewResidual(g)
	theta := risDraw(t, b, res, rng.New(13), 200000)
	for u := graph.NodeID(0); u < graph.NodeID(g.N()); u++ {
		e := exact.ExpectedSpread(res, []graph.NodeID{u})
		if got := ris.EstimateSpread(b.Count(u), theta, res.N()); math.Abs(e-got) > 0.06 {
			t.Errorf("node %d: exact %.4f, RIS %.4f", u, e, got)
		}
	}
	seeds := []graph.NodeID{0, 1, 5}
	e := exact.ExpectedSpread(res, seeds)
	if got := ris.EstimateSpread(b.Collection().Cov(seeds), theta, res.N()); math.Abs(e-got) > 0.06 {
		t.Errorf("seeds %v: exact %.4f, RIS %.4f", seeds, e, got)
	}
}

func TestRISRefreshesOnResidualChange(t *testing.T) {
	g := chainGraph(1, 1)
	b := risBatcher(g, false, 0)
	r := rng.New(17)
	res := graph.NewResidual(g)
	before := risSpread(t, b, res, r, 5000, 0)
	res.Remove(1)
	after := risSpread(t, b, res, r, 5000, 0)
	if math.Abs(before-3) > 0.05 || math.Abs(after-1) > 0.05 {
		t.Fatalf("before=%v after=%v, want ~3 and ~1", before, after)
	}
}

func TestRISEmptyResidual(t *testing.T) {
	g := chainGraph(1, 1)
	res := graph.NewResidual(g)
	for u := graph.NodeID(0); u < 3; u++ {
		res.Remove(u)
	}
	if got := risSpread(t, risBatcher(g, false, 0), res, rng.New(17), 100, 0); got != 0 {
		t.Fatalf("empty residual spread = %v", got)
	}
}
