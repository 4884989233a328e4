package ris

import (
	"slices"
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

// indexLayout is a collection in one of the states the node-to-set index
// has to answer from, with the number of picks to ask CELF for.
type indexLayout struct {
	name string
	c    *Collection
	k    int
}

// randomSets appends count random sets over c's nodes, as randomCollection
// draws them.
func randomSets(r *rng.RNG, c *Collection, count, maxLen int) {
	src := randomCollection(r, c.n, count, maxLen)
	c.appendRange(src, 0, src.Len())
}

// indexLayouts returns random collections whose index is built on first
// use, plus the states the index reaches in a campaign: sets appended
// after it was built (chained onto it, or past the point where it is
// rebuilt with more buckets), tombstones left in place by a drop that did
// not compact, and a prefix adopted from a shared first look (Base),
// whose index starts from the base's.
func indexLayouts(t *testing.T) []indexLayout {
	r := rng.New(42)
	out := []indexLayout{
		{"fresh n=30", randomCollection(r, 30, 120, 5), 8},
		{"fresh n=200", randomCollection(r, 200, 2000, 10), 25},
		{"fresh n=300", randomCollection(r, 300, 12288, 6), 40},
	}

	c := randomCollection(r, 150, 8192, 7)
	c.index()
	randomSets(r, c, 500, 7)
	out = append(out, indexLayout{"appended after build", c, 20})

	c = randomCollection(r, 2000, 100, 7)
	c.index()
	heads := len(c.head)
	randomSets(r, c, 8000, 7)
	c.index()
	if len(c.head) <= heads {
		t.Fatalf("appending 80x the sets kept %d head buckets; the layout misses the rebuild", heads)
	}
	out = append(out, indexLayout{"appended past a rebuild", c, 30})

	c = randomCollection(r, 150, 8192, 7)
	sets := len(c.roots)
	c.InvalidateTouching([]graph.NodeID{3, 77, 140})
	if c.deadSets == 0 || len(c.roots) != sets {
		t.Fatalf("drop left %d tombstones in %d of %d slots; want some, uncompacted", c.deadSets, len(c.roots), sets)
	}
	randomSets(r, c, 300, 7)
	out = append(out, indexLayout{"tombstones", c, 20})

	g := randomGraph(t)
	bs := NewBase(g, cascade.IC, 0x1DE, noTargets(g))
	b := NewBatcher(cascade.IC)
	b.SetBase(bs)
	if _, err := b.GrowTo(graph.NewResidual(g), rng.New(5), 1000, 1); err != nil {
		t.Fatal(err)
	}
	c = b.Collection()
	randomSets(r, c, 40, 5)
	c.index()
	if c.shared == nil || len(c.head) != len(bs.look.Load().sets.head) {
		t.Fatal("adopted prefix did not start its index from the base's")
	}
	out = append(out, indexLayout{"adopted from a base", c, 15})
	return out
}

// TestGreedyMaxCoverageMatchesPlainGreedy is the equivalence property
// behind CELF's laziness: on every indexLayouts collection it must return
// exactly the seed sequence and cumulative coverage curve of plain greedy
// (a full marginal rescan per pick over the legacy layout of the live
// sets). Each compared selection follows a single-pick one on the
// reversed candidates, so it runs on the counts, heap and marks that one
// left on the collection, and must reuse them.
func TestGreedyMaxCoverageMatchesPlainGreedy(t *testing.T) {
	for _, tc := range indexLayouts(t) {
		c := tc.c
		leg := newLegacy(c.n)
		for _, rr := range snapshotSets(c) {
			leg.add(rr)
		}
		candidates := make([]graph.NodeID, c.n)
		for i := range candidates {
			candidates[i] = graph.NodeID(i)
		}
		wantSeeds, wantCum := leg.greedy(candidates, tc.k)
		reversed := slices.Clone(candidates)
		slices.Reverse(reversed)
		c.GreedyMaxCoverage(reversed, 1)
		held, marks := &c.sel.held[0], c.sel.marks
		gotSeeds, gotCum := c.GreedyMaxCoverage(candidates, tc.k)
		if &c.sel.held[0] != held || c.sel.marks != marks {
			t.Fatalf("%s: the second selection reallocated its counts or marks", tc.name)
		}
		if len(gotSeeds) != len(wantSeeds) {
			t.Fatalf("%s: chose %d seeds, plain greedy %d", tc.name, len(gotSeeds), len(wantSeeds))
		}
		for i := range gotSeeds {
			if gotSeeds[i] != wantSeeds[i] || gotCum[i] != wantCum[i] {
				t.Fatalf("%s pick %d: got (%d, cov %d), plain greedy (%d, cov %d)",
					tc.name, i, gotSeeds[i], gotCum[i], wantSeeds[i], wantCum[i])
			}
		}
	}
}

// TestNodeIndexMatchesBruteForce pins the stronger invariant the
// equivalence above relies on: on every indexLayouts collection, the
// node-to-set index yields for each node exactly the live slots a
// brute-force scan of the arena finds, newest first.
func TestNodeIndexMatchesBruteForce(t *testing.T) {
	for _, tc := range indexLayouts(t) {
		c := tc.c
		want := make([][]int32, c.n)
		for s, root := range c.roots {
			if root == deadRoot {
				continue
			}
			for _, u := range c.nodesAt(s) {
				want[u] = append(want[u], int32(s))
			}
		}
		for u := range want {
			got := setsContaining(c, graph.NodeID(u))
			if !slices.Equal(got, want[u]) {
				t.Fatalf("%s node %d: slots %v, brute force %v", tc.name, u, got, want[u])
			}
		}
	}
}

// BenchmarkGreedyMaxCoverage measures one IMM-style selection (all nodes
// as candidates, k=50) on a θ=120k collection, the node-to-set index's
// build included: in IMM each selection follows a fresh draw, which the
// index has not seen.
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
		c.indexed = 0
		seeds, _ := c.GreedyMaxCoverage(candidates, 50)
		if len(seeds) == 0 {
			b.Fatal("no seeds selected")
		}
	}
}
