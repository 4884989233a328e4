package imm

import (
	"math"
	"testing"

	"repro/internal/cascade"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

func TestSelectFindsObviousHub(t *testing.T) {
	// Star with a strong center: node 0 influences 1..9 with p = 0.9.
	b := graph.NewBuilder(10, true)
	for v := 1; v < 10; v++ {
		if err := b.AddEdge(0, graph.NodeID(v), 0.9); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	res, err := Select(g, 1, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 1 || res.Seeds[0] != 0 {
		t.Fatalf("IMM picked %v, want [0]", res.Seeds)
	}
	if res.SpreadLower <= 0 {
		t.Fatalf("SpreadLower = %v", res.SpreadLower)
	}
}

func TestSelectTwoCommunities(t *testing.T) {
	// Two disjoint stars; k=2 must pick both centers.
	b := graph.NewBuilder(20, true)
	for v := 1; v < 10; v++ {
		_ = b.AddEdge(0, graph.NodeID(v), 0.8)
		_ = b.AddEdge(10, graph.NodeID(10+v), 0.8)
	}
	g := b.Build()
	res, err := Select(g, 2, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := map[graph.NodeID]bool{}
	for _, s := range res.Seeds {
		got[s] = true
	}
	if !got[0] || !got[10] {
		t.Fatalf("IMM picked %v, want centers {0, 10}", res.Seeds)
	}
}

func TestSelectSeedSpreadNearOptimal(t *testing.T) {
	// On a generated graph, the IMM seed set's MC spread should beat a
	// random set of the same size by a wide margin.
	g, err := gen.Generate(gen.Config{Model: gen.PrefAttach, N: 800, AvgDeg: 6, Directed: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	const k = 10
	res, err := Select(g, k, Options{Seed: 6, Eps: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != k {
		t.Fatalf("got %d seeds, want %d", len(res.Seeds), k)
	}
	immSpread := cascade.MonteCarloSpread(g, cascade.IC, res.Seeds, 3000, rng.New(7))
	r := rng.New(8)
	randSpread := 0.0
	for trial := 0; trial < 5; trial++ {
		perm := r.Perm(g.N())
		random := make([]graph.NodeID, k)
		for i := 0; i < k; i++ {
			random[i] = graph.NodeID(perm[i])
		}
		randSpread += cascade.MonteCarloSpread(g, cascade.IC, random, 1000, r)
	}
	randSpread /= 5
	if immSpread < 1.5*randSpread {
		t.Fatalf("IMM spread %.1f not clearly better than random %.1f", immSpread, randSpread)
	}
	// The certified lower bound must actually be a lower bound (within MC noise).
	if res.SpreadLower > immSpread*1.1 {
		t.Fatalf("SpreadLower %.1f exceeds measured spread %.1f", res.SpreadLower, immSpread)
	}
}

func TestSelectDeterministic(t *testing.T) {
	g, _ := gen.Generate(gen.Config{Model: gen.PrefAttach, N: 300, AvgDeg: 5, Directed: true, Seed: 9})
	a, err := Select(g, 5, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Select(g, 5, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Seeds {
		if a.Seeds[i] != b.Seeds[i] {
			t.Fatalf("seed %d differs: %v vs %v", i, a.Seeds, b.Seeds)
		}
	}
}

func TestSelectErrors(t *testing.T) {
	g := graph.MustFromEdges(3, true, []graph.Edge{{From: 0, To: 1, P: 0.5}})
	if _, err := Select(g, 0, Options{}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Select(g, 4, Options{}); err == nil {
		t.Error("k>n accepted")
	}
}

func TestSelectKEqualsN(t *testing.T) {
	g := graph.MustFromEdges(3, true, []graph.Edge{{From: 0, To: 1, P: 0.5}})
	res, err := Select(g, 3, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Greedy may stop early once coverage saturates, but never exceed k.
	if len(res.Seeds) > 3 {
		t.Fatalf("selected %d seeds with k = n = 3", len(res.Seeds))
	}
}

func TestSpreadLowerBound(t *testing.T) {
	// Chain 0 -> 1 (p=0.5): E[I({0})] = 1.5. The lower bound must be below
	// the truth but positive at reasonable sample sizes.
	g := graph.MustFromEdges(2, true, []graph.Edge{{From: 0, To: 1, P: 0.5}})
	lb, err := SpreadLowerBound(g, cascade.IC, []graph.NodeID{0}, 50000, 0.001, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lb <= 0 || lb > 1.5 {
		t.Fatalf("lower bound %v outside (0, 1.5]", lb)
	}
	if 1.5-lb > 0.1 {
		t.Fatalf("lower bound %v too loose at θ=50000", lb)
	}
}

func TestSpreadLowerBoundNeverNegative(t *testing.T) {
	g := graph.MustFromEdges(2, true, []graph.Edge{{From: 0, To: 1, P: 0.5}})
	// With almost no samples the half-width exceeds the estimate; bound
	// must clamp at 0.
	lb, err := SpreadLowerBound(g, cascade.IC, []graph.NodeID{1}, 2, 0.0001, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lb < 0 {
		t.Fatalf("lower bound %v negative", lb)
	}
}

func TestLogChoose(t *testing.T) {
	// C(10, 3) = 120.
	if got := math.Exp(logChoose(10, 3)); math.Abs(got-120) > 1e-6 {
		t.Fatalf("exp(logChoose(10,3)) = %v, want 120", got)
	}
	if logChoose(5, 0) != 0 {
		t.Fatal("logChoose(n,0) should be 0")
	}
	if logChoose(5, 9) != 0 {
		t.Fatal("logChoose out of range should be 0")
	}
}
