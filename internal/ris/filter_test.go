package ris

import (
	"testing"

	"repro/internal/cascade"
	"repro/internal/graph"
	"repro/internal/rng"
)

// surviving returns the subsequence of sets avoiding every dead node,
// the brute-force definition Filter must match exactly.
func surviving(sets []*rrSet, res *graph.Residual) []*rrSet {
	var out []*rrSet
	for _, rr := range sets {
		ok := true
		for _, u := range rr.Nodes {
			if !res.Alive(u) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, rr)
		}
	}
	return out
}

// TestFilterKeepsExactlyValidSets: after node deletions, Filter must keep
// exactly the RR sets avoiding deleted nodes, in their original order,
// with contents intact — cross-checked against a brute-force rescan on
// both the worked example and a randomized graph.
func TestFilterKeepsExactlyValidSets(t *testing.T) {
	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		remove []graph.NodeID
	}{
		{"fig1", fig1Graph(), []graph.NodeID{2, 5}},
		{"random", nil, []graph.NodeID{0, 3, 17, 42}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			if g == nil {
				g = randomGraph(t)
			}
			res := graph.NewResidual(g)
			s := newSampler(res, cascade.IC, rng.New(5))
			c := s.generate(2000)
			before := snapshotSets(c)

			for _, u := range tc.remove {
				res.Remove(u)
			}
			want := surviving(before, res)
			kept := c.Filter(res)

			if kept != len(want) || c.Len() != len(want) {
				t.Fatalf("Filter kept %d (Len %d), brute force %d", kept, c.Len(), len(want))
			}
			sameRRSets(t, "kept sets", snapshotSets(c), want)
			// The rebuilt inverted index must agree: no deleted node may
			// index anything, and coverage matches a brute-force count.
			for _, u := range tc.remove {
				if got := countContaining(c, u); got != 0 {
					t.Fatalf("deleted node %d still in %d sets", u, got)
				}
			}
			alive := res.AliveNodes()
			for _, u := range alive[:min(10, len(alive))] {
				wantCov := 0
				for _, rr := range want {
					for _, v := range rr.Nodes {
						if v == u {
							wantCov++
							break
						}
					}
				}
				if got := c.Cov([]graph.NodeID{u}); got != wantCov {
					t.Fatalf("Cov({%d}) = %d after filter, want %d", u, got, wantCov)
				}
			}
		})
	}
}

// TestFilterVersionTracking: Filter is keyed on Residual.Version — an
// unchanged residual is a no-op, every mutation triggers exactly one
// rescan, and the collection's version follows the residual's.
func TestFilterVersionTracking(t *testing.T) {
	g := fig1Graph()
	res := graph.NewResidual(g)
	b := NewBatcher(cascade.IC)
	if _, err := b.GrowTo(res, rng.New(9), 500, 1); err != nil {
		t.Fatal(err)
	}
	c := b.Collection()
	if c.Version() != res.Version() {
		t.Fatalf("generated collection version %d, residual %d", c.Version(), res.Version())
	}

	// No mutation: Filter must keep everything (and not rescan — observable
	// through the version staying put even though nothing changed).
	if kept := c.Filter(res); kept != 500 || c.Len() != 500 {
		t.Fatalf("no-op filter kept %d/%d", kept, c.Len())
	}

	res.Remove(2)
	kept1 := c.Filter(res)
	if c.Version() != res.Version() {
		t.Fatalf("after filter version %d, residual %d", c.Version(), res.Version())
	}
	if kept1 == 500 {
		t.Fatal("removing a fig1 hub invalidated no sets; test graph too weak")
	}
	// Filtering again at the same version is a no-op returning Len.
	if kept := c.Filter(res); kept != kept1 {
		t.Fatalf("repeat filter kept %d, want %d", kept, kept1)
	}

	// A second mutation compacts further (monotone under more deletions).
	res.Remove(4)
	kept2 := c.Filter(res)
	if kept2 > kept1 {
		t.Fatalf("more deletions kept more sets: %d then %d", kept1, kept2)
	}

	// A top-up to a new θ target after a filter asks the pool for the
	// shortfall only, so shortfall accounting stays exact.
	if _, err := b.GrowTo(res, rng.New(10), 800, 1); err != nil {
		t.Fatal(err)
	}
	if st := b.Stats(); c.Len() != 800 || st.RRRequested != int64(500+800-kept2) || st.RRDrawn != st.RRRequested {
		t.Fatalf("after top-up len=%d requested=%d drawn=%d, want 800/%d/%d",
			c.Len(), st.RRRequested, st.RRDrawn, 500+800-kept2, 500+800-kept2)
	}
	// Topped-up sets were drawn on the current residual: still all valid.
	if kept := c.Filter(res); kept != 800 {
		t.Fatalf("filter after top-up kept %d, want 800", kept)
	}
}

// TestFilterTiltsSurvivorLaw pins the known deviation of cross-round
// reuse: a set that survives Filter is an RR set of the old residual
// conditioned on avoiding the removed nodes, which is not the law of a
// fresh RR set of the current residual. On edges 1→0 and 2→1 (p = 0.5)
// with node 2 removed, the root-0 sets {0}, {0,1}, {0,1,2} of the full
// graph have probabilities 1/2, 1/4, 1/4; Filter drops the last, so
// P[set = {0,1} | root 0] is 1/3 among survivors, against 1/2 for fresh
// draws on the residual, where the edge from node 2 is never examined.
// Making reuse exact (or deleting it) flips the first assertion.
func TestFilterTiltsSurvivorLaw(t *testing.T) {
	g := graph.MustFromEdges(3, true, []graph.Edge{{From: 1, To: 0, P: 0.5}, {From: 2, To: 1, P: 0.5}})
	const theta = 300000
	// pairGivenRoot0 returns the fraction of root-0 sets in c equal to {0,1}.
	pairGivenRoot0 := func(c *Collection) float64 {
		roots, pairs := 0, 0
		for _, rr := range snapshotSets(c) {
			if rr.Root != 0 {
				continue
			}
			roots++
			if len(rr.Nodes) == 2 && rr.Nodes[0]+rr.Nodes[1] == 1 {
				pairs++
			}
		}
		if roots == 0 {
			t.Fatal("no root-0 sets")
		}
		return float64(pairs) / float64(roots)
	}

	res := graph.NewResidual(g)
	kept := newSampler(res, cascade.IC, rng.New(61)).generate(theta)
	res.Remove(2)
	kept.Filter(res)
	if got := pairGivenRoot0(kept); got < 1.0/3-0.02 || got > 1.0/3+0.02 {
		t.Fatalf("after Filter P[{0,1} | root 0] = %.3f, want 1/3 ± 0.02", got)
	}
	fresh := newSampler(res, cascade.IC, rng.New(62)).generate(theta)
	if got := pairGivenRoot0(fresh); got < 0.5-0.02 || got > 0.5+0.02 {
		t.Fatalf("fresh P[{0,1} | root 0] = %.3f, want 1/2 ± 0.02", got)
	}
}
