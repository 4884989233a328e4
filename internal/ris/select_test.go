package ris

import (
	"testing"

	"repro/internal/cascade"
	"repro/internal/graph"
	"repro/internal/rng"
)

// randomCollection builds a collection of random sets directly (not via a
// sampler) so tests control the size distribution cheaply.
func randomCollection(r *rng.RNG, n, sets, maxLen int) *Collection {
	c := NewCollection(n)
	var buf []graph.NodeID
	for i := 0; i < sets; i++ {
		l := 1 + r.Intn(maxLen)
		root := graph.NodeID(r.Intn(n))
		buf = append(buf[:0], root)
		for len(buf) < l {
			u := graph.NodeID(r.Intn(n))
			dup := false
			for _, v := range buf {
				if v == u {
					dup = true
					break
				}
			}
			if !dup {
				buf = append(buf, u)
			}
		}
		c.AddSet(root, buf)
	}
	return c
}

// TestGreedyMaxCoverageMatchesPlainGreedy is the equivalence property
// behind CELF's laziness: for randomized collections it must return
// exactly the seed sequence and cumulative coverage curve of plain greedy
// (a full marginal rescan per pick over the legacy layout).
func TestGreedyMaxCoverageMatchesPlainGreedy(t *testing.T) {
	r := rng.New(42)
	cases := []struct{ n, sets, maxLen, k int }{
		{n: 30, sets: 120, maxLen: 5, k: 8},
		{n: 200, sets: 2000, maxLen: 10, k: 25},
		{n: 300, sets: 12288, maxLen: 6, k: 40},
	}
	for _, tc := range cases {
		c := randomCollection(r, tc.n, tc.sets, tc.maxLen)
		leg := newLegacy(tc.n)
		for i := 0; i < c.Len(); i++ {
			leg.add(&rrSet{Root: c.Root(i), Nodes: c.SetNodes(i)})
		}
		candidates := make([]graph.NodeID, tc.n)
		for i := range candidates {
			candidates[i] = graph.NodeID(i)
		}
		wantSeeds, wantCum := leg.greedy(candidates, tc.k)
		gotSeeds, gotCum := c.GreedyMaxCoverage(candidates, tc.k)
		if len(gotSeeds) != len(wantSeeds) {
			t.Fatalf("n=%d sets=%d: chose %d seeds, plain greedy %d",
				tc.n, tc.sets, len(gotSeeds), len(wantSeeds))
		}
		for i := range gotSeeds {
			if gotSeeds[i] != wantSeeds[i] || gotCum[i] != wantCum[i] {
				t.Fatalf("n=%d sets=%d pick %d: got (%d, cov %d), plain greedy (%d, cov %d)",
					tc.n, tc.sets, i, gotSeeds[i], gotCum[i], wantSeeds[i], wantCum[i])
			}
		}
	}
}

// TestBuildIndexMatchesBruteForce pins the stronger invariant the
// equivalence above relies on: the counting sort produces exactly the
// per-node index a brute-force scan builds (set ids ascending per node,
// offsets prefix-summed over the node space), including on a rebuild
// into the retained arrays after more sets were appended.
func TestBuildIndexMatchesBruteForce(t *testing.T) {
	r := rng.New(7)
	const n = 150
	c := randomCollection(r, n, 8192, 7)
	for _, step := range []string{"first build", "rebuild after append"} {
		if step == "rebuild after append" {
			c.AddSet(3, []graph.NodeID{3, 5, 8})
		}
		want := make([][]int32, n)
		for i := 0; i < c.Len(); i++ {
			for _, u := range c.SetNodes(i) {
				want[u] = append(want[u], int32(i))
			}
		}
		c.BuildIndex()
		if len(c.invOff) != n+1 || len(c.invArena) != len(c.arena) || c.invOff[0] != 0 {
			t.Fatalf("%s: index shape (%d offsets, %d ids, first %d), want (%d, %d, 0)",
				step, len(c.invOff), len(c.invArena), c.invOff[0], n+1, len(c.arena))
		}
		for u := range want {
			got := c.invArena[c.invOff[u]:c.invOff[u+1]]
			if len(got) != len(want[u]) {
				t.Fatalf("%s node %d: %d sets, brute force %d", step, u, len(got), len(want[u]))
			}
			for j := range got {
				if got[j] != want[u][j] {
					t.Fatalf("%s node %d entry %d: set %d, brute force %d", step, u, j, got[j], want[u][j])
				}
			}
		}
	}
}

// BenchmarkGreedyMaxCoverage measures one IMM-style selection (all nodes
// as candidates, k=50) on a θ=120k collection, index rebuild included —
// in real runs selection always follows a top-up, which invalidates the
// index.
func BenchmarkGreedyMaxCoverage(b *testing.B) {
	g := benchGraph(b)
	res := graph.NewResidual(g)
	c := newSamplerPool(cascade.IC).generate(res, rng.New(3), 120_000, 0)
	candidates := make([]graph.NodeID, g.N())
	for i := range candidates {
		candidates[i] = graph.NodeID(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.invValid = false
		seeds, _ := c.GreedyMaxCoverage(candidates, 50)
		if len(seeds) == 0 {
			b.Fatal("no seeds selected")
		}
	}
}
