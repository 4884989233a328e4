package graph

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"repro/internal/rng"
)

// assertMatchesSortReference checks g, built from edges, against a
// reference layout computed with stable comparison sorts: out-runs from
// the edges sorted by (from, to), in-runs from the edges sorted by (to,
// from), parallel edges in input order in both. Every field a consumer
// can reach is compared: N, M, Directed, InUniform, MaxInDegree, Edges,
// every node's out- and in-run with probabilities, and its success-count
// table.
func assertMatchesSortReference(t *testing.T, g *Graph, n int, directed bool, edges []Edge) {
	t.Helper()
	if g.N() != n || g.M() != int64(len(edges)) || g.Directed() != directed {
		t.Fatalf("shape n=%d m=%d directed=%v, want %d/%d/%v", g.N(), g.M(), g.Directed(), n, len(edges), directed)
	}
	byOut := slices.Clone(edges)
	slices.SortStableFunc(byOut, func(a, b Edge) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})
	byIn := slices.Clone(edges)
	slices.SortStableFunc(byIn, func(a, b Edge) int {
		return cmp.Or(cmp.Compare(a.To, b.To), cmp.Compare(a.From, b.From))
	})
	if got := g.Edges(); !slices.Equal(got, byOut) {
		t.Fatalf("Edges() = %v, want %v", got, byOut)
	}
	outRuns := make([][]Edge, n)
	for _, e := range byOut {
		outRuns[e.From] = append(outRuns[e.From], e)
	}
	inRuns := make([][]Edge, n)
	maxIn := 0
	for _, e := range byIn {
		inRuns[e.To] = append(inRuns[e.To], e)
		maxIn = max(maxIn, len(inRuns[e.To]))
	}
	if g.MaxInDegree() != maxIn {
		t.Fatalf("MaxInDegree %d, want %d", g.MaxInDegree(), maxIn)
	}
	uniform := true
	for _, run := range inRuns {
		for _, e := range run {
			uniform = uniform && e.P == run[0].P
		}
	}
	if g.InUniform() != uniform {
		t.Fatalf("InUniform %v, want %v", g.InUniform(), uniform)
	}
	for v := NodeID(0); v < NodeID(n); v++ {
		adj, ps := g.OutNeighbors(v)
		if len(adj) != len(outRuns[v]) || g.OutDegree(v) != len(adj) {
			t.Fatalf("node %d: out-degree %d, want %d", v, len(adj), len(outRuns[v]))
		}
		for i, e := range outRuns[v] {
			if adj[i] != e.To || ps[i] != e.P {
				t.Fatalf("node %d: out edge %d (%d, %v), want (%d, %v)", v, i, adj[i], ps[i], e.To, e.P)
			}
		}
		adj, ps = g.InNeighbors(v)
		if len(adj) != len(inRuns[v]) || g.InDegree(v) != len(adj) {
			t.Fatalf("node %d: in-degree %d, want %d", v, len(adj), len(inRuns[v]))
		}
		for i, e := range inRuns[v] {
			if adj[i] != e.From || ps[i] != e.P {
				t.Fatalf("node %d: in edge %d (%d, %v), want (%d, %v)", v, i, adj[i], ps[i], e.From, e.P)
			}
		}
		var want []uint32
		if uniform && len(inRuns[v]) > 0 && inRuns[v][0].P < 1 {
			// The builder pads tables past the sentinel; the accessor
			// returns them up to it.
			want = binomialThresholds(len(inRuns[v]), inRuns[v][0].P)
			want = want[:slices.Index(want, ^uint32(0))+1]
		}
		if got := g.InCountThresholds(v); !slices.Equal(got, want) {
			t.Fatalf("node %d: count table %v, want %v", v, got, want)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

// randomMultigraph draws m edges on n nodes from a pool of few distinct
// endpoint pairs, so parallel edges are common. mixed gives every edge
// one of four probabilities; otherwise all share 0.5.
func randomMultigraph(r *rng.RNG, n, m int, mixed bool) []Edge {
	pool := make([][2]NodeID, 0, 2*n)
	for len(pool) < cap(pool) {
		u, v := NodeID(r.Intn(n)), NodeID(r.Intn(n))
		if u != v {
			pool = append(pool, [2]NodeID{u, v})
		}
	}
	vals := [4]float64{0.5, 0.25, 0.125, 1}
	edges := make([]Edge, m)
	for i := range edges {
		pair := pool[r.Intn(len(pool))]
		p := vals[0]
		if mixed {
			p = vals[r.Intn(len(vals))]
		}
		edges[i] = Edge{From: pair[0], To: pair[1], P: p}
	}
	return edges
}

// TestBuildMatchesSortReference checks the counting-sort Build against the
// stable comparison-sort reference on random multigraphs: parallel edges
// with mixed and shared probabilities, with and without Dedup, directed
// and undirected, under every weighting.
func TestBuildMatchesSortReference(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.Intn(40)
		mixed, dedup, directed := trial%2 == 0, trial%3 == 0, trial%5 != 0
		name := fmt.Sprintf("trial=%d n=%d mixed=%v dedup=%v directed=%v", trial, n, mixed, dedup, directed)
		b := NewBuilder(n, directed)
		for _, e := range randomMultigraph(r, n, r.Intn(6*n), mixed) {
			add := b.AddEdge
			if !directed {
				add = b.AddUndirected
			}
			if err := add(e.From, e.To, e.P); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if dedup {
			b.Dedup()
		}
		switch trial % 7 {
		case 1:
			b.ApplyWeightedCascade()
		case 2:
			if err := b.ApplyUniformProbability(0.3); err != nil {
				t.Fatal(err)
			}
		case 3:
			b.ApplyTrivalency(func(i int) int { return i })
		}
		t.Run(name, func(t *testing.T) {
			assertMatchesSortReference(t, b.Build(), n, directed, b.edges)
		})
	}
}

// TestDedupKeepsFirstOccurrenceOrder checks that Dedup keeps exactly the
// first occurrence of every (from, to) pair, in input order, and reports
// the number of edges it removed.
func TestDedupKeepsFirstOccurrenceOrder(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 100; trial++ {
		n := 2 + r.Intn(30)
		edges := randomMultigraph(r, n, r.Intn(8*n), false)
		for i := range edges {
			edges[i].P = float64(i+1) / float64(len(edges)+1) // tells occurrences apart
		}
		var want []Edge
		seen := make(map[[2]NodeID]bool)
		for _, e := range edges {
			if !seen[[2]NodeID{e.From, e.To}] {
				seen[[2]NodeID{e.From, e.To}] = true
				want = append(want, e)
			}
		}
		b := NewBuilder(n, true)
		for _, e := range edges {
			if err := b.AddEdge(e.From, e.To, e.P); err != nil {
				t.Fatal(err)
			}
		}
		if removed := b.Dedup(); removed != len(edges)-len(want) {
			t.Fatalf("trial %d: removed %d, want %d", trial, removed, len(edges)-len(want))
		}
		if !slices.Equal(b.edges, want) {
			t.Fatalf("trial %d: kept %v, want %v", trial, b.edges, want)
		}
		if removed := b.Dedup(); removed != 0 {
			t.Fatalf("trial %d: second Dedup removed %d", trial, removed)
		}
	}
}
