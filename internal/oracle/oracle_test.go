package oracle

import (
	"math"
	"testing"

	"repro/internal/cascade"
	"repro/internal/graph"
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

func TestMonteCarloMatchesExact(t *testing.T) {
	g := fig1Graph()
	exact, _ := NewExact(g)
	mc := NewMonteCarlo(cascade.IC, 200000, 7)
	res := graph.NewResidual(g)
	for _, seeds := range [][]graph.NodeID{{0}, {1}, {5}, {0, 1, 5}} {
		e := exact.ExpectedSpread(res, seeds)
		m := mc.ExpectedSpread(res, seeds)
		if math.Abs(e-m) > 0.05 {
			t.Errorf("seeds %v: exact %.4f, MC %.4f", seeds, e, m)
		}
	}
}

func TestMonteCarloCacheIsOrderInsensitive(t *testing.T) {
	g := fig1Graph()
	mc := NewMonteCarlo(cascade.IC, 100, 7)
	res := graph.NewResidual(g)
	a := mc.ExpectedSpread(res, []graph.NodeID{0, 5, 1})
	b := mc.ExpectedSpread(res, []graph.NodeID{1, 0, 5})
	if a != b {
		t.Fatalf("permuted seed sets gave %v and %v", a, b)
	}
	if len(mc.cache) != 1 {
		t.Fatalf("cache has %d entries, want 1", len(mc.cache))
	}
}

func TestMonteCarloCacheInvalidatedByResidualChange(t *testing.T) {
	g := chainGraph(1, 1)
	mc := NewMonteCarlo(cascade.IC, 500, 7)
	res := graph.NewResidual(g)
	before := mc.ExpectedSpread(res, []graph.NodeID{0})
	res.Remove(1)
	after := mc.ExpectedSpread(res, []graph.NodeID{0})
	if before != 3 || after != 1 {
		t.Fatalf("before=%v after=%v, want 3 and 1", before, after)
	}
}

func TestMonteCarloDeterministic(t *testing.T) {
	g := fig1Graph()
	a := NewMonteCarlo(cascade.IC, 1000, 9)
	b := NewMonteCarlo(cascade.IC, 1000, 9)
	res := graph.NewResidual(g)
	if a.ExpectedSpread(res, []graph.NodeID{1}) != b.ExpectedSpread(res, []graph.NodeID{1}) {
		t.Fatal("same-seed MC oracles disagree")
	}
}

func TestRISMatchesExact(t *testing.T) {
	g := fig1Graph()
	exact, _ := NewExact(g)
	ro := NewRIS(cascade.IC, 200000, rng.New(13))
	res := graph.NewResidual(g)
	for _, seeds := range [][]graph.NodeID{{0}, {1}, {0, 1, 5}} {
		e := exact.ExpectedSpread(res, seeds)
		r := ro.ExpectedSpread(res, seeds)
		if math.Abs(e-r) > 0.06 {
			t.Errorf("seeds %v: exact %.4f, RIS %.4f", seeds, e, r)
		}
	}
}

func TestRISRefreshesOnResidualChange(t *testing.T) {
	g := chainGraph(1, 1)
	ro := NewRIS(cascade.IC, 5000, rng.New(17))
	res := graph.NewResidual(g)
	before := ro.ExpectedSpread(res, []graph.NodeID{0})
	res.Remove(1)
	after := ro.ExpectedSpread(res, []graph.NodeID{0})
	if math.Abs(before-3) > 0.05 || math.Abs(after-1) > 0.05 {
		t.Fatalf("before=%v after=%v, want ~3 and ~1", before, after)
	}
}

func TestRISEmptyResidual(t *testing.T) {
	g := chainGraph(1, 1)
	ro := NewRIS(cascade.IC, 100, rng.New(17))
	res := graph.NewResidual(g)
	for u := graph.NodeID(0); u < 3; u++ {
		res.Remove(u)
	}
	if got := ro.ExpectedSpread(res, []graph.NodeID{0}); got != 0 {
		t.Fatalf("empty residual spread = %v", got)
	}
}

func TestConstructorsRejectNonPositiveParams(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("NewMonteCarlo", func() { NewMonteCarlo(cascade.IC, 0, 1) })
	mustPanic("NewRIS", func() { NewRIS(cascade.IC, 0, rng.New(1)) })
}
