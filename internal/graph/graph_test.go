package graph

import (
	"testing"
)

// fig1Edges returns the edges of the paper's Fig. 1(a) example graph G1.
// Node IDs v1..v7 map to 0..6.
func fig1Edges() []Edge {
	return []Edge{
		{From: 0, To: 1, P: 0.4}, // v1 -> v2
		{From: 1, To: 2, P: 0.8}, // v2 -> v3
		{From: 1, To: 3, P: 0.7}, // v2 -> v4
		{From: 3, To: 2, P: 0.6}, // v4 -> v3
		{From: 2, To: 4, P: 0.5}, // v3 -> v5
		{From: 4, To: 5, P: 0.3}, // v5 -> v6
		{From: 5, To: 4, P: 0.7}, // v6 -> v5
		{From: 5, To: 6, P: 0.6}, // v6 -> v7
		{From: 6, To: 0, P: 0.2}, // v7 -> v1
		{From: 4, To: 0, P: 0.7}, // v5 -> v1
	}
}

func TestBuildFig1(t *testing.T) {
	g := MustFromEdges(7, true, fig1Edges())
	if g.N() != 7 {
		t.Fatalf("N = %d, want 7", g.N())
	}
	if g.M() != 10 {
		t.Fatalf("M = %d, want 10", g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if d := g.OutDegree(1); d != 2 {
		t.Fatalf("outdeg(v2) = %d, want 2", d)
	}
	if d := g.InDegree(0); d != 2 {
		t.Fatalf("indeg(v1) = %d, want 2", d)
	}
	p, ok := g.EdgeProbability(1, 2)
	if !ok || p != 0.8 {
		t.Fatalf("p(v2,v3) = %v,%v want 0.8,true", p, ok)
	}
	if _, ok := g.EdgeProbability(2, 1); ok {
		t.Fatal("reverse edge (v3,v2) should not exist")
	}
}

func TestInOutConsistency(t *testing.T) {
	g := MustFromEdges(7, true, fig1Edges())
	// Every out edge must appear as an in edge with the same probability.
	for u := int32(0); u < int32(g.N()); u++ {
		adj, ps := outRun(g, u)
		for i, v := range adj {
			srcs, qs := g.InNeighbors(v)
			found := false
			for j, w := range srcs {
				if w == u && qs[j] == ps[i] {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edge (%d,%d) missing from in-adjacency", u, v)
			}
		}
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	want := fig1Edges()
	g := MustFromEdges(7, true, want)
	got := g.Edges()
	if len(got) != len(want) {
		t.Fatalf("Edges() returned %d edges, want %d", len(got), len(want))
	}
	seen := make(map[Edge]bool)
	for _, e := range got {
		seen[e] = true
	}
	for _, e := range want {
		if !seen[e] {
			t.Fatalf("edge %+v missing from Edges()", e)
		}
	}
}

func TestBuilderRejectsBadEdges(t *testing.T) {
	b := NewBuilder(3, true)
	cases := []struct {
		u, v NodeID
		p    float64
	}{
		{-1, 0, 0.5},
		{0, 3, 0.5},
		{0, 0, 0.5},  // self loop
		{0, 1, 0},    // p = 0
		{0, 1, -0.1}, // p < 0
		{0, 1, 1.5},  // p > 1
	}
	for _, c := range cases {
		if err := b.AddEdge(c.u, c.v, c.p); err == nil {
			t.Fatalf("AddEdge(%d,%d,%v) accepted", c.u, c.v, c.p)
		}
	}
	if err := b.AddEdge(0, 1, 1); err != nil {
		t.Fatalf("valid edge rejected: %v", err)
	}
}

func TestBuilderDedup(t *testing.T) {
	b := NewBuilder(3, true)
	for i := 0; i < 3; i++ {
		if err := b.AddEdge(0, 1, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddEdge(1, 2, 0.25); err != nil {
		t.Fatal(err)
	}
	if removed := b.Dedup(); removed != 2 {
		t.Fatalf("Dedup removed %d, want 2", removed)
	}
	g := b.Build()
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2", g.M())
	}
}

func TestWeightedCascade(t *testing.T) {
	b := NewBuilder(4, true)
	// Node 3 has in-degree 3, node 1 has in-degree 1.
	for _, e := range [][2]NodeID{{0, 3}, {1, 3}, {2, 3}, {0, 1}} {
		if err := b.AddArc(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	b.ApplyWeightedCascade()
	g := b.Build()
	if p, _ := g.EdgeProbability(0, 3); p != 1.0/3 {
		t.Fatalf("p(0,3) = %v, want 1/3", p)
	}
	if p, _ := g.EdgeProbability(0, 1); p != 1 {
		t.Fatalf("p(0,1) = %v, want 1", p)
	}
}

func TestUniformProbability(t *testing.T) {
	b := NewBuilder(3, true)
	_ = b.AddArc(0, 1)
	_ = b.AddArc(1, 2)
	if err := b.ApplyUniformProbability(0.1); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	for _, e := range g.Edges() {
		if e.P != 0.1 {
			t.Fatalf("edge %+v not reweighted", e)
		}
	}
	if err := b.ApplyUniformProbability(0); err == nil {
		t.Fatal("ApplyUniformProbability(0) accepted")
	}
}

func TestTrivalency(t *testing.T) {
	b := NewBuilder(3, true)
	_ = b.AddArc(0, 1)
	_ = b.AddArc(1, 2)
	_ = b.AddArc(2, 0)
	b.ApplyTrivalency(func(i int) int { return i })
	g := b.Build()
	want := map[float64]bool{0.1: true, 0.01: true, 0.001: true}
	for _, e := range g.Edges() {
		if !want[e.P] {
			t.Fatalf("edge %+v has non-trivalency probability", e)
		}
	}
}

func TestAddUndirected(t *testing.T) {
	b := NewBuilder(2, false)
	if err := b.AddUndirected(0, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2 (both directions)", g.M())
	}
	if _, ok := g.EdgeProbability(0, 1); !ok {
		t.Fatal("forward direction missing")
	}
	if _, ok := g.EdgeProbability(1, 0); !ok {
		t.Fatal("backward direction missing")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0, true).Build()
	if g.N() != 0 || g.M() != 0 {
		t.Fatalf("empty graph has N=%d M=%d", g.N(), g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	g2 := NewBuilder(5, true).Build() // nodes, no edges
	if g2.N() != 5 || g2.M() != 0 {
		t.Fatalf("edgeless graph has N=%d M=%d", g2.N(), g2.M())
	}
	if d := g2.OutDegree(3); d != 0 {
		t.Fatalf("outdeg = %d, want 0", d)
	}
}

func TestValidateOnBuiltGraphs(t *testing.T) {
	g := MustFromEdges(7, true, fig1Edges())
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}
