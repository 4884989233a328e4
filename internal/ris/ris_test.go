package ris

import (
	"math"
	"slices"
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

// rrSet is one boxed RR set — the form single-draw tests and reference
// models hold sets in; collections store them unboxed.
type rrSet struct {
	Root  graph.NodeID
	Nodes []graph.NodeID
}

// snapshotSets copies c's live sets (the slots with a non-negative root)
// out in order (roots + nodes), so a later in-place drop can be
// cross-checked against a brute-force rescan.
func snapshotSets(c *Collection) []*rrSet {
	var out []*rrSet
	for i, root := range c.roots {
		if root >= 0 {
			out = append(out, &rrSet{Root: root, Nodes: append([]graph.NodeID(nil), c.nodesAt(i)...)})
		}
	}
	return out
}

// copyLive overwrites dst with src's live sets, renumbered densely, at
// src's version: a pool loaded set by set through AddSet, with no dropped
// sets, no node-to-set index and nothing counted yet.
func copyLive(dst, src *Collection) {
	dst.Reset()
	for i, root := range src.roots {
		if root >= 0 {
			dst.AddSet(root, src.nodesAt(i))
		}
	}
	dst.version = src.version
}

// nodesAt returns the nodes of the set in slot i as a view into the
// arena; until a collection drops a set, slot i is its set i.
func (c *Collection) nodesAt(i int) []graph.NodeID {
	return c.arena[c.offsets[i]:c.offsets[i+1]]
}

// setsContaining returns the slots of the live sets holding u, ascending,
// read off the node-to-set index (which walks them newest first).
func setsContaining(c *Collection, u graph.NodeID) []int32 {
	var slots []int32
	c.eachHolding(u, func(s int32) { slots = append(slots, s) })
	slices.Reverse(slots)
	return slots
}

// countContaining returns the number of live sets holding u, read off the
// node-to-set index.
func countContaining(c *Collection, u graph.NodeID) int {
	return len(setsContaining(c, u))
}

// sameRRSets fails unless got and want hold identical sets in identical
// order.
func sameRRSets(t *testing.T, where string, got, want []*rrSet) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d sets, want %d", where, len(got), len(want))
	}
	for i, rr := range want {
		if got[i].Root != rr.Root || !slices.Equal(got[i].Nodes, rr.Nodes) {
			t.Fatalf("%s: set %d is (%d, %v), want (%d, %v)", where, i, got[i].Root, got[i].Nodes, rr.Root, rr.Nodes)
		}
	}
}

// newSampler creates a lone sampler over res under model, drawing from r.
func newSampler(res *graph.Residual, model cascade.Model, r *rng.RNG) *sampler {
	s := &sampler{model: model}
	s.bind(res, r)
	return s
}

// newSamplerPool creates an empty pool drawing under model.
func newSamplerPool(model cascade.Model) *samplerPool { return &samplerPool{model: model} }

// draw samples one RR set into a fresh rrSet, or returns nil if no node
// is alive. IC draws take the per-edge reference traversal.
func (s *sampler) draw() *rrSet {
	root, ok := s.drawTouched()
	if !ok {
		return nil
	}
	return &rrSet{Root: root, Nodes: append([]graph.NodeID(nil), s.touched...)}
}

// appendTo draws up to count RR sets into c with the bulk kernel, stopping
// early if the residual empties.
func (s *sampler) appendTo(c *Collection, count int) {
	c.noteVersion(s.res.Version())
	s.appendSets(c, count)
}

// generate draws theta RR sets into a new collection with the bulk kernel.
func (s *sampler) generate(theta int) *Collection {
	c := NewCollection(s.res.FullN())
	s.appendTo(c, theta)
	return c
}

// generate draws theta RR sets through the pool into a new collection —
// the sets a fresh Batcher's first GrowTo draws.
func (p *samplerPool) generate(res *graph.Residual, parent *rng.RNG, theta, workers int) *Collection {
	c := NewCollection(res.FullN())
	p.AppendParallel(c, res, parent, theta, workers)
	return c
}

func TestDrawBasics(t *testing.T) {
	g := fig1Graph()
	s := newSampler(graph.NewResidual(g), cascade.IC, rng.New(1))
	for i := 0; i < 100; i++ {
		rr := s.draw()
		if rr == nil {
			t.Fatal("draw returned nil on a live graph")
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
	s := newSampler(res, cascade.IC, rng.New(1))
	if rr := s.draw(); rr != nil {
		t.Fatalf("draw on empty residual returned %+v", rr)
	}
}

func TestDrawExcludesDeadNodes(t *testing.T) {
	g := fig1Graph()
	res := graph.NewResidual(g)
	res.Remove(2) // v3 dead
	s := newSampler(res, cascade.IC, rng.New(4))
	for i := 0; i < 500; i++ {
		rr := s.draw()
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
	s := newSampler(res, cascade.IC, rng.New(4))
	_ = s.draw()
	res.Remove(0)
	for i := 0; i < 300; i++ {
		rr := s.draw()
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
	s := newSampler(graph.NewResidual(g), cascade.IC, rng.New(11))
	const theta = 300000
	c := s.generate(theta)
	got := EstimateSpread(c.Cov([]graph.NodeID{0}), c.Len(), g.N())
	want := 1 + p1 + p1*p2
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("RIS estimate %.4f, want %.4f", got, want)
	}
}

func TestEstimatorMatchesMonteCarloFig1(t *testing.T) {
	g := fig1Graph()
	res := graph.NewResidual(g)
	s := newSampler(res, cascade.IC, rng.New(21))
	c := s.generate(200000)
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
	s := newSampler(res, cascade.IC, rng.New(31))
	c := s.generate(20000)
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
	s := newSampler(graph.NewResidual(g), cascade.LT, rng.New(41))
	c := s.generate(200000)
	got := EstimateSpread(c.Cov([]graph.NodeID{0}), c.Len(), g.N())
	mc := cascade.MonteCarloSpread(g, cascade.LT, []graph.NodeID{0}, 100000, rng.New(42))
	if math.Abs(got-1.5) > 0.02 || math.Abs(mc-1.5) > 0.02 {
		t.Fatalf("LT estimates RIS=%.3f MC=%.3f, want 1.5", got, mc)
	}
}

func TestCovBruteForceProperty(t *testing.T) {
	g := fig1Graph()
	s := newSampler(graph.NewResidual(g), cascade.IC, rng.New(51))
	c := s.generate(500)
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
			for _, u := range c.nodesAt(i) {
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
	s := newSampler(graph.NewResidual(g), cascade.IC, rng.New(61))
	c := s.generate(2000)
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
	s := newSampler(graph.NewResidual(g), cascade.IC, rng.New(81))
	c := s.generate(5000)
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
	c.AddSet(0, []graph.NodeID{0, 1})
	chosen, _ := c.GreedyMaxCoverage([]graph.NodeID{0, 1, 2}, 3)
	if len(chosen) != 1 {
		t.Fatalf("chose %v, want exactly one node", chosen)
	}
}

func TestGreedyDeterministicTieBreak(t *testing.T) {
	c := NewCollection(3)
	c.AddSet(0, []graph.NodeID{0, 1, 2})
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
	a := newSamplerPool(cascade.IC).generate(res, rng.New(90), 1000, 4)
	b := newSamplerPool(cascade.IC).generate(res, rng.New(90), 1000, 4)
	sameSets(t, "same seed, fresh pools", a, b)
}

func TestGenerateParallelCountAndEstimate(t *testing.T) {
	g := fig1Graph()
	res := graph.NewResidual(g)
	c := newSamplerPool(cascade.IC).generate(res, rng.New(91), 50000, 0)
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
	// Empty residual: every draw fails, so the batcher must report the
	// full shortfall instead of silently holding fewer sets — on one
	// worker and on several.
	g := fig1Graph()
	res := graph.NewResidual(g)
	for u := graph.NodeID(0); u < 7; u++ {
		res.Remove(u)
	}
	for _, tc := range []struct {
		name           string
		res            *graph.Residual
		seed           uint64
		theta, workers int
		held           int
	}{
		{"empty", res, 1, 100, 1, 0},
		{"live graph", graph.NewResidual(g), 1, 100, 1, 100},
		{"parallel", res, 2, 64, 4, 0},
	} {
		b := NewBatcher(cascade.IC)
		n, err := b.GrowTo(tc.res, rng.New(tc.seed), tc.theta, tc.workers)
		if err != nil {
			t.Fatal(err)
		}
		if st := b.Stats(); n != tc.held || st.RRDrawn != int64(tc.held) || st.RRRequested != int64(tc.theta) {
			t.Fatalf("%s: len=%d drawn=%d requested=%d, want %d/%d/%d",
				tc.name, n, st.RRDrawn, st.RRRequested, tc.held, tc.held, tc.theta)
		}
	}
}

func TestMarksResetReusable(t *testing.T) {
	g := fig1Graph()
	s := newSampler(graph.NewResidual(g), cascade.IC, rng.New(61))
	c := s.generate(2000)
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
	c.AddSet(0, []graph.NodeID{0})
	early.Reset()
	if got := early.Cover(0); got != countContaining(c, 0) {
		t.Fatalf("grown marks covered %d, want %d", got, countContaining(c, 0))
	}
}
