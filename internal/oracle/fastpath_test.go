package oracle

import (
	"math"
	"testing"

	"repro/internal/cascade"
	"repro/internal/graph"
	"repro/internal/ris"
	"repro/internal/rng"
)

// uniformFig1 is the worked example's topology with one shared edge
// probability, so the graph compresses (graph.InUniform) and RR sampling
// takes the table/jump fast paths while staying small enough for exact
// enumeration (m = 10 <= MaxExactEdges).
func uniformFig1(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(7, true)
	for _, e := range [][2]graph.NodeID{
		{0, 1}, {1, 2}, {1, 3}, {3, 2}, {2, 4},
		{4, 5}, {5, 4}, {5, 6}, {6, 0}, {4, 0},
	} {
		if err := b.AddArc(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.ApplyUniformProbability(0.3); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	if !g.InUniform() {
		t.Fatal("uniform graph did not compress")
	}
	return g
}

// drawRR draws theta RR sets on res through a fresh batcher on one worker.
func drawRR(t *testing.T, res *graph.Residual, model cascade.Model, r *rng.RNG, theta int) *ris.Collection {
	t.Helper()
	b := ris.NewBatcher(model)
	if _, err := b.GrowTo(res, r, theta, 1); err != nil {
		t.Fatal(err)
	}
	return b.Collection()
}

// TestFastICMatchesExactOracle: the RIS estimate over fast-path RR sets
// must agree with exact world enumeration on the uniform worked example.
func TestFastICMatchesExactOracle(t *testing.T) {
	g := uniformFig1(t)
	exact, err := NewExact(g)
	if err != nil {
		t.Fatal(err)
	}
	res := graph.NewResidual(g)
	const theta = 300000
	col := drawRR(t, res, cascade.IC, rng.New(17), theta)
	for _, seed := range []graph.NodeID{0, 1, 4, 5} {
		want := exact.ExpectedSpread(res, []graph.NodeID{seed})
		got := ris.EstimateSpread(col.Cov([]graph.NodeID{seed}), col.Len(), g.N())
		if math.Abs(got-want) > 0.03 {
			t.Errorf("seed %d: RIS %.4f vs exact %.4f", seed, got, want)
		}
	}
}

// exactLTSpread enumerates the LT triggering model directly: every node
// independently picks one in-parent (edge (u,v) with probability p(u,v))
// or none, and the spread is the reachable set over picked edges. This is
// an independent reference for both the reverse (ris) and forward
// (cascade.Sample) LT fast paths.
func exactLTSpread(g *graph.Graph, seeds []graph.NodeID) float64 {
	n := g.N()
	type choice struct {
		parent graph.NodeID // -1 = no pick
		prob   float64
	}
	options := make([][]choice, n)
	for v := 0; v < n; v++ {
		srcs, ps := g.InNeighbors(graph.NodeID(v))
		rest := 1.0
		for i, u := range srcs {
			options[v] = append(options[v], choice{parent: u, prob: ps[i]})
			rest -= ps[i]
		}
		options[v] = append(options[v], choice{parent: -1, prob: rest})
	}
	total := 0.0
	picked := make([]graph.NodeID, n)
	var walk func(v int, p float64)
	walk = func(v int, p float64) {
		if p == 0 {
			return
		}
		if v == n {
			// Spread = nodes reachable from seeds along picked edges.
			visited := make([]bool, n)
			stack := append([]graph.NodeID(nil), seeds...)
			count := 0
			for len(stack) > 0 {
				u := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if visited[u] {
					continue
				}
				visited[u] = true
				count++
				for w := 0; w < n; w++ {
					if picked[w] == u && !visited[graph.NodeID(w)] {
						stack = append(stack, graph.NodeID(w))
					}
				}
			}
			total += p * float64(count)
			return
		}
		for _, c := range options[v] {
			picked[v] = c.parent
			walk(v+1, p*c.prob)
		}
	}
	walk(0, 1)
	return total
}

// TestFastLTMatchesExactEnumeration checks the LT fast paths (reverse RR
// sampling and forward realization sampling) against direct enumeration
// of the pick space on a small uniform graph.
func TestFastLTMatchesExactEnumeration(t *testing.T) {
	// 5 nodes, uniform p = 0.25; node 3 has in-degree 3 (sum 0.75 <= 1).
	b := graph.NewBuilder(5, true)
	for _, e := range [][2]graph.NodeID{{0, 3}, {1, 3}, {2, 3}, {3, 4}, {4, 0}} {
		if err := b.AddArc(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.ApplyUniformProbability(0.25); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	if !g.InUniform() {
		t.Fatal("uniform graph did not compress")
	}
	res := graph.NewResidual(g)
	const theta = 400000
	col := drawRR(t, res, cascade.LT, rng.New(19), theta)
	for _, seed := range []graph.NodeID{0, 1, 3} {
		want := exactLTSpread(g, []graph.NodeID{seed})
		got := ris.EstimateSpread(col.Cov([]graph.NodeID{seed}), col.Len(), g.N())
		if math.Abs(got-want) > 0.03 {
			t.Errorf("seed %d: reverse LT %.4f vs exact %.4f", seed, got, want)
		}
		mc := cascade.MonteCarloSpread(g, cascade.LT, []graph.NodeID{seed}, 200000, rng.New(23))
		if math.Abs(mc-want) > 0.03 {
			t.Errorf("seed %d: forward LT %.4f vs exact %.4f", seed, mc, want)
		}
	}
}
