package cascade

import (
	"math"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// fig1Graph builds the paper's Fig. 1(a) graph (v1..v7 -> 0..6).
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

// fig1Realization reproduces the realization of Fig. 1(b)-(d): v2
// activates v3 and v4 (edges v2->v3, v2->v4, v4->v3 live; v3->v5 dead),
// v6 activates v5 and v7 (v6->v5, v6->v7 live; v5->v1, v7->v1 dead).
func fig1Realization() *Realization {
	return FromLiveEdges(fig1Graph(), []graph.Edge{
		{From: 1, To: 2}, // v2 -> v3
		{From: 1, To: 3}, // v2 -> v4
		{From: 3, To: 2}, // v4 -> v3
		{From: 5, To: 4}, // v6 -> v5
		{From: 5, To: 6}, // v6 -> v7
	})
}

func TestSpreadFig1WorkedExample(t *testing.T) {
	rz := fig1Realization()
	// Adaptive run of the paper: seeding v2 activates {v2,v3,v4}.
	if got := Spread(rz, []graph.NodeID{1}); got != 3 {
		t.Fatalf("I_φ({v2}) = %d, want 3", got)
	}
	// Seeding v6 activates {v6,v5,v7}.
	if got := Spread(rz, []graph.NodeID{5}); got != 3 {
		t.Fatalf("I_φ({v6}) = %d, want 3", got)
	}
	// Adaptive solution {v2,v6}: spread 6, profit 6 - 3 = 3.
	if got := Spread(rz, []graph.NodeID{1, 5}); got != 6 {
		t.Fatalf("I_φ({v2,v6}) = %d, want 6", got)
	}
	// Nonadaptive solution {v1,v2,v6}: spread 7, profit 7 - 4.5 = 2.5.
	if got := Spread(rz, []graph.NodeID{0, 1, 5}); got != 7 {
		t.Fatalf("I_φ({v1,v2,v6}) = %d, want 7", got)
	}
}

func TestActivatedFig1(t *testing.T) {
	rz := fig1Realization()
	res := graph.NewResidual(rz.Graph())
	a := Activate(rz, res, []graph.NodeID{1})
	if want := []graph.NodeID{1, 2, 3}; !slices.Equal(a, want) {
		t.Fatalf("A(v2) = %v, want %v in BFS order", a, want)
	}
	// Activate removed A(v2); observe the second seed on the residual G2.
	if got := res.Removed(); !slices.Equal(got, []graph.NodeID{3, 2, 1}) {
		t.Fatalf("removal log after A(v2) = %v, want most recent first [3 2 1]", got)
	}
	a2 := Activate(rz, res, []graph.NodeID{5})
	if want := []graph.NodeID{5, 4, 6}; !slices.Equal(a2, want) {
		t.Fatalf("A(v6) on G2 = %v, want %v", a2, want)
	}
	if res.N() != 1 || !res.Alive(0) {
		t.Fatalf("after both observations alive = %v, want [0]", res.AliveNodes())
	}
	// Seeding an activated node activates nothing.
	if a3 := Activate(rz, res, []graph.NodeID{1}); len(a3) != 0 {
		t.Fatalf("A(v2) again = %v, want empty", a3)
	}
}

func TestSpreadOnResidualExcludesDeadNodes(t *testing.T) {
	rz := fig1Realization()
	res := graph.NewResidual(rz.Graph())
	res.Remove(2) // kill v3
	// v2's cascade is v2 -> {v3, v4}; with v3 dead the spread is {v2, v4}.
	if got := SpreadOn(rz, res, []graph.NodeID{1}); got != 2 {
		t.Fatalf("spread with v3 removed = %d, want 2", got)
	}
	// A dead seed contributes nothing.
	if got := SpreadOn(rz, res, []graph.NodeID{2}); got != 0 {
		t.Fatalf("dead seed spread = %d, want 0", got)
	}
}

func TestDeadNodeDoesNotRelay(t *testing.T) {
	// Chain 0 -> 1 -> 2, all live; removing 1 must cut 2 off.
	g := graph.MustFromEdges(3, true, []graph.Edge{
		{From: 0, To: 1, P: 1}, {From: 1, To: 2, P: 1},
	})
	rz := FromLiveEdges(g, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 2}})
	res := graph.NewResidual(g)
	res.Remove(1)
	if got := SpreadOn(rz, res, []graph.NodeID{0}); got != 1 {
		t.Fatalf("spread through dead relay = %d, want 1", got)
	}
}

func TestSpreadDuplicateSeeds(t *testing.T) {
	rz := fig1Realization()
	a := Spread(rz, []graph.NodeID{1, 1, 1})
	b := Spread(rz, []graph.NodeID{1})
	if a != b {
		t.Fatalf("duplicate seeds changed spread: %d vs %d", a, b)
	}
}

func TestSpreadEmptySeeds(t *testing.T) {
	rz := fig1Realization()
	if got := Spread(rz, nil); got != 0 {
		t.Fatalf("spread of empty seed set = %d", got)
	}
}

func TestSampleICDeterministic(t *testing.T) {
	g := fig1Graph()
	a := Sample(g, IC, rng.New(9))
	b := Sample(g, IC, rng.New(9))
	for u := graph.NodeID(0); u < 7; u++ {
		if la, lb := a.AppendLiveOut(nil, u), b.AppendLiveOut(nil, u); !slices.Equal(la, lb) {
			t.Fatalf("same seed gave different live sets at %d: %v vs %v", u, la, lb)
		}
	}
}

func TestSampleICEdgeFrequency(t *testing.T) {
	// Each edge must be live with its own probability.
	g := fig1Graph()
	r := rng.New(33)
	const reps = 20000
	liveCount := make(map[[2]graph.NodeID]int)
	for i := 0; i < reps; i++ {
		rz := Sample(g, IC, r)
		for u := graph.NodeID(0); u < 7; u++ {
			for _, v := range rz.AppendLiveOut(nil, u) {
				liveCount[[2]graph.NodeID{u, v}]++
			}
		}
	}
	for _, e := range g.Edges() {
		got := float64(liveCount[[2]graph.NodeID{e.From, e.To}]) / reps
		if math.Abs(got-e.P) > 0.02 {
			t.Errorf("edge (%d,%d): live frequency %.3f, want %.2f", e.From, e.To, got, e.P)
		}
	}
}

func TestSampleLTOneParentPerNode(t *testing.T) {
	g := fig1Graph()
	r := rng.New(14)
	for i := 0; i < 200; i++ {
		rz := Sample(g, LT, r)
		inCount := make(map[graph.NodeID]int)
		for u := graph.NodeID(0); u < 7; u++ {
			for _, v := range rz.AppendLiveOut(nil, u) {
				inCount[v]++
			}
		}
		for v, c := range inCount {
			if c > 1 {
				t.Fatalf("LT realization gave node %d %d live in-edges", v, c)
			}
		}
	}
}

func TestSampleLTParentFrequency(t *testing.T) {
	// Node v3 (id 2) has in-edges from v2 (p=0.8) and v4 (p=0.6)? No:
	// weighted-cascade is not applied here, so in-probabilities may exceed
	// 1. Build a small LT-safe graph instead.
	g := graph.MustFromEdges(3, true, []graph.Edge{
		{From: 0, To: 2, P: 0.5},
		{From: 1, To: 2, P: 0.25},
	})
	r := rng.New(91)
	const reps = 40000
	from0, from1, none := 0, 0, 0
	for i := 0; i < reps; i++ {
		rz := Sample(g, LT, r)
		l0 := len(rz.AppendLiveOut(nil, 0))
		l1 := len(rz.AppendLiveOut(nil, 1))
		switch {
		case l0 == 1 && l1 == 0:
			from0++
		case l0 == 0 && l1 == 1:
			from1++
		case l0 == 0 && l1 == 0:
			none++
		default:
			t.Fatal("node 2 has two live in-edges under LT")
		}
	}
	if got := float64(from0) / reps; math.Abs(got-0.5) > 0.02 {
		t.Errorf("P(parent=0) = %.3f, want 0.5", got)
	}
	if got := float64(from1) / reps; math.Abs(got-0.25) > 0.02 {
		t.Errorf("P(parent=1) = %.3f, want 0.25", got)
	}
	if got := float64(none) / reps; math.Abs(got-0.25) > 0.02 {
		t.Errorf("P(no parent) = %.3f, want 0.25", got)
	}
}

func TestMonteCarloSpreadSingleNodeChain(t *testing.T) {
	// 0 -> 1 with p: E[I({0})] = 1 + p.
	for _, p := range []float64{0.2, 0.5, 0.9} {
		g := graph.MustFromEdges(2, true, []graph.Edge{{From: 0, To: 1, P: p}})
		got := MonteCarloSpread(g, IC, []graph.NodeID{0}, 50000, rng.New(5))
		want := 1 + p
		if math.Abs(got-want) > 0.02 {
			t.Errorf("p=%v: MC spread %.3f, want %.3f", p, got, want)
		}
	}
}

func TestMonteCarloSpreadTwoHop(t *testing.T) {
	// 0 -> 1 -> 2 with p1, p2: E[I({0})] = 1 + p1 + p1*p2.
	p1, p2 := 0.6, 0.5
	g := graph.MustFromEdges(3, true, []graph.Edge{
		{From: 0, To: 1, P: p1}, {From: 1, To: 2, P: p2},
	})
	got := MonteCarloSpread(g, IC, []graph.NodeID{0}, 100000, rng.New(6))
	want := 1 + p1 + p1*p2
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("MC spread %.3f, want %.3f", got, want)
	}
}

func TestMonteCarloSpreadFig1TargetSet(t *testing.T) {
	// The paper states E[I_G1({v1,v2,v6})] = 6.16. Under our transcription
	// of Fig. 1(a)'s edge probabilities the exact value, computed by hand
	// (seeds 3 + P(v4)=0.7 + P(v3)=0.884 + P(v5)=0.8326 + P(v7)=0.6), is
	// 6.0166; the figure's probability-to-edge assignment is ambiguous in
	// the text-only paper dump. The worked example's realization-specific
	// profits (3 adaptive vs 2.5 nonadaptive) are transcription-independent
	// and tested above.
	g := fig1Graph()
	got := MonteCarloSpread(g, IC, []graph.NodeID{0, 1, 5}, 200000, rng.New(77))
	if math.Abs(got-6.0166) > 0.03 {
		t.Fatalf("E[I({v1,v2,v6})] = %.3f, want 6.0166 exactly", got)
	}
}

func TestMonteCarloSpreadOnResidual(t *testing.T) {
	// Chain 0 -> 1 -> 2 with all p = 1; removing node 1 leaves spread 1.
	g := graph.MustFromEdges(3, true, []graph.Edge{
		{From: 0, To: 1, P: 1}, {From: 1, To: 2, P: 1},
	})
	res := graph.NewResidual(g)
	res.Remove(1)
	got := MonteCarloSpreadOn(res, IC, []graph.NodeID{0}, 100, rng.New(2))
	if got != 1 {
		t.Fatalf("residual MC spread = %v, want 1", got)
	}
}

func TestMonteCarloPanicsOnZeroReps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on reps=0")
		}
	}()
	MonteCarloSpread(fig1Graph(), IC, nil, 0, rng.New(1))
}

func TestModelString(t *testing.T) {
	if IC.String() != "IC" || LT.String() != "LT" {
		t.Fatal("model names wrong")
	}
	if Model(9).String() == "" {
		t.Fatal("unknown model name empty")
	}
}
