package ris

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cascade"
	"repro/internal/graph"
	"repro/internal/rng"
)

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

func TestDrawBasics(t *testing.T) {
	g := fig1Graph()
	s := NewSampler(graph.NewResidual(g), cascade.IC, rng.New(1))
	for i := 0; i < 100; i++ {
		rr := s.Draw()
		if rr == nil {
			t.Fatal("Draw returned nil on a live graph")
		}
		if len(rr.Nodes) == 0 {
			t.Fatal("RR set is empty")
		}
		foundRoot := false
		seen := make(map[graph.NodeID]bool)
		for _, u := range rr.Nodes {
			if u == rr.Root {
				foundRoot = true
			}
			if seen[u] {
				t.Fatalf("RR set contains duplicate node %d", u)
			}
			seen[u] = true
		}
		if !foundRoot {
			t.Fatal("RR set does not contain its root")
		}
	}
}

func TestDrawOnEmptyResidual(t *testing.T) {
	g := fig1Graph()
	res := graph.NewResidual(g)
	for u := graph.NodeID(0); u < 7; u++ {
		res.Remove(u)
	}
	s := NewSampler(res, cascade.IC, rng.New(1))
	if rr := s.Draw(); rr != nil {
		t.Fatalf("Draw on empty residual returned %+v", rr)
	}
}

func TestDrawExcludesDeadNodes(t *testing.T) {
	g := fig1Graph()
	res := graph.NewResidual(g)
	res.Remove(2) // v3 dead
	s := NewSampler(res, cascade.IC, rng.New(4))
	for i := 0; i < 500; i++ {
		rr := s.Draw()
		for _, u := range rr.Nodes {
			if u == 2 {
				t.Fatal("dead node appeared in an RR set")
			}
		}
	}
}

func TestDrawRespectsResidualVersion(t *testing.T) {
	// Removing a node after the sampler cached the alive list must be
	// picked up on the next draw.
	g := fig1Graph()
	res := graph.NewResidual(g)
	s := NewSampler(res, cascade.IC, rng.New(4))
	_ = s.Draw()
	res.Remove(0)
	for i := 0; i < 300; i++ {
		rr := s.Draw()
		if rr.Root == 0 {
			t.Fatal("sampled a dead root after removal")
		}
		for _, u := range rr.Nodes {
			if u == 0 {
				t.Fatal("dead node in RR set after removal")
			}
		}
	}
}

// The RIS identity: E[I(S)] = n * Pr[RR ∩ S ≠ ∅]. Verify the estimator
// against hand-computed expected spreads on a two-hop chain.
func TestEstimatorUnbiasedChain(t *testing.T) {
	p1, p2 := 0.6, 0.5
	g := graph.MustFromEdges(3, true, []graph.Edge{
		{From: 0, To: 1, P: p1}, {From: 1, To: 2, P: p2},
	})
	s := NewSampler(graph.NewResidual(g), cascade.IC, rng.New(11))
	const theta = 300000
	c := s.Generate(theta)
	got := EstimateSpread(c.Cov([]graph.NodeID{0}), c.Len(), g.N())
	want := 1 + p1 + p1*p2
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("RIS estimate %.4f, want %.4f", got, want)
	}
}

func TestEstimatorMatchesMonteCarloFig1(t *testing.T) {
	g := fig1Graph()
	res := graph.NewResidual(g)
	s := NewSampler(res, cascade.IC, rng.New(21))
	c := s.Generate(200000)
	for _, seed := range []graph.NodeID{0, 1, 5} {
		est := EstimateSpread(c.Cov([]graph.NodeID{seed}), c.Len(), g.N())
		mc := cascade.MonteCarloSpread(g, cascade.IC, []graph.NodeID{seed}, 100000, rng.New(22))
		if math.Abs(est-mc) > 0.05 {
			t.Errorf("node %d: RIS %.3f vs MC %.3f", seed, est, mc)
		}
	}
}

func TestEstimatorOnResidual(t *testing.T) {
	// Chain 0->1->2 with p=1. Remove node 0; on the residual graph (n=2),
	// E[I({1})] = 2 (node 1 reaches 2).
	g := graph.MustFromEdges(3, true, []graph.Edge{
		{From: 0, To: 1, P: 1}, {From: 1, To: 2, P: 1},
	})
	res := graph.NewResidual(g)
	res.Remove(0)
	s := NewSampler(res, cascade.IC, rng.New(31))
	c := s.Generate(20000)
	got := EstimateSpread(c.Cov([]graph.NodeID{1}), c.Len(), res.N())
	if math.Abs(got-2) > 0.05 {
		t.Fatalf("residual RIS estimate %.3f, want 2", got)
	}
}

func TestLTSamplerUnbiased(t *testing.T) {
	// 0 -> 2 (0.5), 1 -> 2 (0.25). Under LT, E[I({0})] = 1 + 0.5.
	g := graph.MustFromEdges(3, true, []graph.Edge{
		{From: 0, To: 2, P: 0.5}, {From: 1, To: 2, P: 0.25},
	})
	s := NewSampler(graph.NewResidual(g), cascade.LT, rng.New(41))
	c := s.Generate(200000)
	got := EstimateSpread(c.Cov([]graph.NodeID{0}), c.Len(), g.N())
	mc := cascade.MonteCarloSpread(g, cascade.LT, []graph.NodeID{0}, 100000, rng.New(42))
	if math.Abs(got-1.5) > 0.02 || math.Abs(mc-1.5) > 0.02 {
		t.Fatalf("LT estimates RIS=%.3f MC=%.3f, want 1.5", got, mc)
	}
}

func TestCovBruteForceProperty(t *testing.T) {
	g := fig1Graph()
	s := NewSampler(graph.NewResidual(g), cascade.IC, rng.New(51))
	c := s.Generate(500)
	f := func(mask uint8) bool {
		var set []graph.NodeID
		for u := 0; u < 7; u++ {
			if mask&(1<<u) != 0 {
				set = append(set, graph.NodeID(u))
			}
		}
		// Brute force: count RR sets intersecting the set.
		want := 0
		for i := 0; i < c.Len(); i++ {
			hit := false
			for _, u := range c.SetNodes(i) {
				for _, v := range set {
					if u == v {
						hit = true
					}
				}
			}
			if hit {
				want++
			}
		}
		return c.Cov(set) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 128}); err != nil {
		t.Fatal(err)
	}
}

func TestMarksIncrementalMatchesCov(t *testing.T) {
	g := fig1Graph()
	s := NewSampler(graph.NewResidual(g), cascade.IC, rng.New(61))
	c := s.Generate(2000)
	m := c.NewMarks()
	var acc []graph.NodeID
	for _, u := range []graph.NodeID{1, 5, 0, 3} {
		// Marginal must equal Cov(acc ∪ {u}) - Cov(acc).
		want := c.Cov(append(append([]graph.NodeID{}, acc...), u)) - c.Cov(acc)
		if got := m.Marginal(u); got != want {
			t.Fatalf("Marginal(%d | %v) = %d, want %d", u, acc, got, want)
		}
		gained := m.Cover(u)
		if gained != want {
			t.Fatalf("Cover(%d) gained %d, want %d", u, gained, want)
		}
		acc = append(acc, u)
		if m.Count() != c.Cov(acc) {
			t.Fatalf("Count() = %d, Cov(%v) = %d", m.Count(), acc, c.Cov(acc))
		}
	}
}

func TestGreedyMaxCoverage(t *testing.T) {
	g := fig1Graph()
	s := NewSampler(graph.NewResidual(g), cascade.IC, rng.New(81))
	c := s.Generate(5000)
	all := []graph.NodeID{0, 1, 2, 3, 4, 5, 6}
	chosen, cum := c.GreedyMaxCoverage(all, 3)
	if len(chosen) == 0 || len(chosen) != len(cum) {
		t.Fatalf("chose %v cum %v", chosen, cum)
	}
	// First pick must be the single node with maximum coverage.
	best, bestCov := graph.NodeID(-1), -1
	for _, u := range all {
		if cov := c.Cov([]graph.NodeID{u}); cov > bestCov {
			best, bestCov = u, cov
		}
	}
	if chosen[0] != best {
		t.Fatalf("first pick %d (cov %d), want %d (cov %d)",
			chosen[0], c.Cov([]graph.NodeID{chosen[0]}), best, bestCov)
	}
	// Cumulative coverage must be nondecreasing and match Cov of prefix.
	for i := range chosen {
		if got := c.Cov(chosen[:i+1]); got != cum[i] {
			t.Fatalf("cum[%d] = %d, Cov(prefix) = %d", i, cum[i], got)
		}
	}
}

func TestGreedyMaxCoverageStopsWhenSaturated(t *testing.T) {
	// Single RR set; after one pick nothing can add coverage.
	c := NewCollection(3)
	c.Add(&RRSet{Root: 0, Nodes: []graph.NodeID{0, 1}})
	chosen, _ := c.GreedyMaxCoverage([]graph.NodeID{0, 1, 2}, 3)
	if len(chosen) != 1 {
		t.Fatalf("chose %v, want exactly one node", chosen)
	}
}

func TestGreedyDeterministicTieBreak(t *testing.T) {
	c := NewCollection(3)
	c.Add(&RRSet{Root: 0, Nodes: []graph.NodeID{0, 1, 2}})
	for i := 0; i < 20; i++ {
		chosen, _ := c.GreedyMaxCoverage([]graph.NodeID{2, 1, 0}, 1)
		if len(chosen) != 1 || chosen[0] != 0 {
			t.Fatalf("tie-break picked %v, want [0]", chosen)
		}
	}
}

func TestGenerateParallelDeterministic(t *testing.T) {
	g := fig1Graph()
	res := graph.NewResidual(g)
	a := NewSamplerPool(cascade.IC).Generate(res, rng.New(90), 1000, 4)
	b := NewSamplerPool(cascade.IC).Generate(res, rng.New(90), 1000, 4)
	sameSets(t, "same seed, fresh pools", a, b)
}

func TestGenerateParallelCountAndEstimate(t *testing.T) {
	g := fig1Graph()
	res := graph.NewResidual(g)
	c := NewSamplerPool(cascade.IC).Generate(res, rng.New(91), 50000, 0)
	if c.Len() != 50000 {
		t.Fatalf("generated %d sets, want 50000", c.Len())
	}
	est := EstimateSpread(c.Cov([]graph.NodeID{1}), c.Len(), g.N())
	mc := cascade.MonteCarloSpread(g, cascade.IC, []graph.NodeID{1}, 100000, rng.New(92))
	if math.Abs(est-mc) > 0.06 {
		t.Fatalf("parallel RIS %.3f vs MC %.3f", est, mc)
	}
}

func TestEstimateSpreadZeroTheta(t *testing.T) {
	if EstimateSpread(5, 0, 100) != 0 {
		t.Fatal("zero theta should estimate 0")
	}
}

func TestGenerateShortfallSurfaced(t *testing.T) {
	// Empty residual: every draw fails, so the collection must report the
	// full shortfall instead of silently holding fewer sets.
	g := fig1Graph()
	res := graph.NewResidual(g)
	for u := graph.NodeID(0); u < 7; u++ {
		res.Remove(u)
	}
	s := NewSampler(res, cascade.IC, rng.New(1))
	c := s.Generate(100)
	if c.Len() != 0 || c.Requested() != 100 {
		t.Fatalf("len=%d requested=%d, want 0/100", c.Len(), c.Requested())
	}
	full := NewSampler(graph.NewResidual(g), cascade.IC, rng.New(1)).Generate(100)
	if full.Len() != 100 || full.Requested() != 100 {
		t.Fatalf("live graph holds %d of %d requested", full.Len(), full.Requested())
	}
	par := NewSamplerPool(cascade.IC).Generate(res, rng.New(2), 64, 4)
	if par.Len() != 0 || par.Requested() != 64 {
		t.Fatalf("parallel len=%d requested=%d, want 0/64", par.Len(), par.Requested())
	}
}

func TestMarksResetReusable(t *testing.T) {
	g := fig1Graph()
	s := NewSampler(graph.NewResidual(g), cascade.IC, rng.New(61))
	c := s.Generate(2000)
	m := c.NewMarks()
	want := c.Cov([]graph.NodeID{1, 5})
	for i := 0; i < 3; i++ {
		m.Reset()
		m.CoverAll([]graph.NodeID{1, 5})
		if m.Count() != want {
			t.Fatalf("after reset %d: count %d, want %d", i, m.Count(), want)
		}
	}
	// Marks created before more sets are added must grow on Reset.
	early := c.NewMarks()
	c.Add(&RRSet{Root: 0, Nodes: []graph.NodeID{0}})
	early.Reset()
	if got := early.Cover(0); got != len(c.SetsContaining(0)) {
		t.Fatalf("grown marks covered %d, want %d", got, len(c.SetsContaining(0)))
	}
}
