package cost

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

func starGraph() *graph.Graph {
	// Node 0 has out-degree 3; nodes 1..3 have out-degree 0.
	return graph.MustFromEdges(4, true, []graph.Edge{
		{From: 0, To: 1, P: 0.5},
		{From: 0, To: 2, P: 0.5},
		{From: 0, To: 3, P: 0.5},
	})
}

func TestAssignUniform(t *testing.T) {
	g := starGraph()
	set := []graph.NodeID{0, 1, 2, 3}
	m, err := Assign(g, set, 8, Uniform, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range set {
		if m.Cost(u) != 2 {
			t.Fatalf("uniform cost of %d = %v, want 2", u, m.Cost(u))
		}
	}
	if m.Total(set) != 8 {
		t.Fatalf("total = %v, want 8", m.Total(set))
	}
}

func TestAssignDegreeProportional(t *testing.T) {
	g := starGraph()
	set := []graph.NodeID{0, 1}
	m, err := Assign(g, set, 6, DegreeProportional, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Weights are outdeg+1: node 0 -> 4, node 1 -> 1; shares 4/5 and 1/5.
	if got := m.Cost(0); math.Abs(got-4.8) > 1e-12 {
		t.Fatalf("cost(0) = %v, want 4.8", got)
	}
	if got := m.Cost(1); math.Abs(got-1.2) > 1e-12 {
		t.Fatalf("cost(1) = %v, want 1.2", got)
	}
	if math.Abs(m.Total(set)-6) > 1e-12 {
		t.Fatalf("total = %v, want 6", m.Total(set))
	}
}

func TestAssignRandom(t *testing.T) {
	g := starGraph()
	set := []graph.NodeID{0, 1, 2, 3}
	m, err := Assign(g, set, 10, Random, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Total(set)-10) > 1e-9 {
		t.Fatalf("total = %v, want 10", m.Total(set))
	}
	for _, u := range set {
		if m.Cost(u) <= 0 {
			t.Fatalf("random cost of %d = %v, want positive", u, m.Cost(u))
		}
	}
	// Determinism.
	m2, _ := Assign(g, set, 10, Random, rng.New(3))
	for _, u := range set {
		if m.Cost(u) != m2.Cost(u) {
			t.Fatal("random assignment not deterministic under fixed seed")
		}
	}
}

func TestAssignErrors(t *testing.T) {
	g := starGraph()
	if _, err := Assign(g, nil, 5, Uniform, nil); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := Assign(g, []graph.NodeID{0}, 0, Uniform, nil); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := Assign(g, []graph.NodeID{0}, -1, Uniform, nil); err == nil {
		t.Error("negative budget accepted")
	}
	if _, err := Assign(g, []graph.NodeID{0}, 5, Random, nil); err == nil {
		t.Error("random without RNG accepted")
	}
	if _, err := Assign(g, []graph.NodeID{0}, 5, Setting(42), nil); err == nil {
		t.Error("unknown setting accepted")
	}
}

func TestCostOfUnassignedNodeIsZero(t *testing.T) {
	g := starGraph()
	m, _ := Assign(g, []graph.NodeID{0}, 5, Uniform, nil)
	if m.Cost(3) != 0 {
		t.Fatalf("unassigned node cost = %v", m.Cost(3))
	}
}

func TestSettingString(t *testing.T) {
	if DegreeProportional.String() != "degree-proportional" ||
		Uniform.String() != "uniform" || Random.String() != "random" {
		t.Fatal("setting names wrong")
	}
	if Setting(9).String() == "" {
		t.Fatal("unknown setting name empty")
	}
}
