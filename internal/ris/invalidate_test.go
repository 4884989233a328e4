package ris

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cascade"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// survivingTouched is the brute-force oracle for InvalidateTouching: the
// subsequence of sets containing none of the touched nodes.
func survivingTouched(sets []*rrSet, touched []graph.NodeID) []*rrSet {
	mark := make(map[graph.NodeID]bool, len(touched))
	for _, u := range touched {
		mark[u] = true
	}
	var out []*rrSet
	for _, rr := range sets {
		ok := true
		for _, u := range rr.Nodes {
			if mark[u] {
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

// editEdges applies a parallel-free delta to an edge list: every delete
// removes the first (From, To) match, inserts are appended.
func editEdges(base, inserts, deletes []graph.Edge) []graph.Edge {
	edited := append([]graph.Edge{}, base...)
	for _, d := range deletes {
		for i, e := range edited {
			if e.From == d.From && e.To == d.To {
				edited = append(edited[:i], edited[i+1:]...)
				break
			}
		}
	}
	return append(edited, inserts...)
}

// TestInvalidateTouchingMatchesBruteForce: after a topology delta,
// InvalidateTouching must keep exactly the RR sets avoiding every touched
// node, in order, contents intact, coverage compacted in lockstep, and the
// collection's residual version untouched — against a brute-force rescan,
// with the inverted index stale or built beforehand. A built index must
// be cleared, since set ids change on compaction.
func TestInvalidateTouchingMatchesBruteForce(t *testing.T) {
	for _, warmIndex := range []bool{false, true} {
		name := "scan"
		if warmIndex {
			name = "index"
		}
		t.Run(name, func(t *testing.T) {
			g := randomGraph(t)
			res := graph.NewResidual(g)
			c := newSampler(res, cascade.IC, rng.New(21)).generate(2000)
			cov := newCoverage(c)
			before := snapshotSets(c)

			_, dres, err := g.ApplyDelta(gen.ChurnDeltas(g, 0.01, rng.New(7)))
			if err != nil {
				t.Fatal(err)
			}
			if warmIndex {
				countContaining(c, 0) // force the inverted index current
			}
			versionBefore := c.Version()
			want := survivingTouched(before, dres.Touched)
			kept := c.InvalidateTouching(dres.Touched)
			if c.invValid {
				t.Fatal("inverted index still marked valid after compaction")
			}

			if kept == len(before) {
				t.Fatal("delta invalidated no sets; churn too weak to test anything")
			}
			if kept != len(want) || c.Len() != len(want) {
				t.Fatalf("kept %d (Len %d), brute force %d", kept, c.Len(), len(want))
			}
			sameRRSets(t, "kept sets", snapshotSets(c), want)
			if c.Version() != versionBefore {
				t.Fatalf("version changed %d -> %d; survivors stay valid for the current residual",
					versionBefore, c.Version())
			}
			// No touched node may remain in any set; coverage must agree
			// with a brute-force recount after the lockstep compaction.
			for _, u := range dres.Touched {
				if got := countContaining(c, u); got != 0 {
					t.Fatalf("touched node %d still in %d sets", u, got)
				}
			}
			cov.Update()
			for _, u := range everyThird(g.N()) {
				if cov.Count(u) != countContaining(c, u) {
					t.Fatalf("coverage desync at node %d: %d vs %d", u, cov.Count(u), countContaining(c, u))
				}
			}
			// Survivors are still valid at the unchanged residual version:
			// the next Filter must be a no-op.
			if again := c.Filter(res); again != kept {
				t.Fatalf("Filter after invalidate dropped to %d from %d", again, kept)
			}
		})
	}
}

// TestInvalidateTouchingEdgeCases pins the no-op paths.
func TestInvalidateTouchingEdgeCases(t *testing.T) {
	g := fig1Graph()
	res := graph.NewResidual(g)
	c := newSampler(res, cascade.IC, rng.New(3)).generate(100)
	if kept := c.InvalidateTouching(nil); kept != 100 {
		t.Fatalf("empty touched dropped sets: %d", kept)
	}
	empty := NewCollection(g.N())
	if kept := empty.InvalidateTouching([]graph.NodeID{1}); kept != 0 {
		t.Fatalf("empty collection kept %d", kept)
	}
	b := NewBatcher(cascade.IC)
	if kept := b.Invalidate([]graph.NodeID{1}); kept != 0 {
		t.Fatalf("batcher invalidate before first sync kept %d", kept)
	}
}

// TestDeltaGraphSamplingBitIdenticalToRebuild: the delta-overlay graph and
// a from-scratch rebuild on the edited edge list must drive the RR sampler
// through bit-identical draws at equal seeds — the strongest form of the
// delta ≡ rebuild differential, for both diffusion models. It covers every
// in-arena tier layout the IC kernel reads: two siblings derived off the
// shared base (runs in the base and in a small private overflow), then a
// chain from one of them long enough to append to the overflow in place,
// compact it, and fold it into a new base.
func TestDeltaGraphSamplingBitIdenticalToRebuild(t *testing.T) {
	g := randomGraph(t)
	base := g.Edges()
	assertDraws := func(what string, dg *graph.Graph, edges []graph.Edge, seed uint64) {
		t.Helper()
		rebuilt, err := graph.FromEdges(g.N(), true, edges)
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range []cascade.Model{cascade.IC, cascade.LT} {
			cd := newSampler(graph.NewResidual(dg), model, rng.New(seed)).generate(1500)
			cr := newSampler(graph.NewResidual(rebuilt), model, rng.New(seed)).generate(1500)
			sameRRSets(t, fmt.Sprintf("%s model %v", what, model), snapshotSets(cd), snapshotSets(cr))
		}
	}
	inArena := func(dg *graph.Graph) graph.Arena[graph.NodeID] {
		t.Helper()
		meta, arena, _, _ := dg.InSamplerTables()
		if meta == nil {
			t.Fatal("weighted-cascade churn left compressed in-probability storage")
		}
		return arena
	}
	sameArray := func(a, b []graph.NodeID) bool { return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0] }

	var cur *graph.Graph
	var edges []graph.Edge
	for sib := uint64(0); sib < 2; sib++ {
		inserts, deletes := gen.ChurnDeltas(g, 0.02, rng.New(90+sib))
		next, _, err := g.ApplyDelta(inserts, deletes)
		if err != nil {
			t.Fatal(err)
		}
		if a := inArena(next); !sameArray(a.Base, inArena(g).Base) || len(a.Over) == 0 {
			t.Fatalf("sibling %d: in-runs not split between the shared base and an overflow", sib)
		}
		cur, edges = next, editEdges(base, inserts, deletes)
		assertDraws(fmt.Sprintf("sibling %d", sib), cur, edges, 400+sib)
	}
	seen := map[string]int{}
	for round := 0; seen["compact"] == 0 || seen["fold"] == 0 || seen["append"] == 0; round++ {
		if round == 100 {
			t.Fatalf("100 chained deltas never exercised every tier layout: %v", seen)
		}
		inserts, deletes := gen.ChurnDeltas(cur, 0.02, rng.New(uint64(100+round)))
		next, _, err := cur.ApplyDelta(inserts, deletes)
		if err != nil {
			t.Fatal(err)
		}
		prev, now := inArena(cur), inArena(next)
		layout := "append"
		switch {
		case !sameArray(prev.Base, now.Base):
			layout = "fold"
		case !sameArray(prev.Over, now.Over):
			layout = "compact"
		}
		seen[layout]++
		edges = editEdges(edges, inserts, deletes)
		assertDraws(fmt.Sprintf("round %d (%s)", round, layout), next, edges, uint64(500+round))
		cur = next
	}
	t.Logf("layouts %v", seen)
}

// TestPostDeltaTopUpChiSquareMatchesFresh: after invalidation, the top-up
// draws on the delta-overlay graph must be distributed like fresh draws on
// the rebuilt graph. Both pools share the identical base draw and
// invalidation; only the top-up seed differs, so a chi-square over
// per-node containment counts isolates exactly the delta-graph-vs-rebuilt
// sampling distribution.
func TestPostDeltaTopUpChiSquareMatchesFresh(t *testing.T) {
	const theta = 3000
	g := randomGraph(t)
	inserts, deletes := gen.ChurnDeltas(g, 0.01, rng.New(13))
	ng, dres, err := g.ApplyDelta(inserts, deletes)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := graph.FromEdges(g.N(), true, editEdges(g.Edges(), inserts, deletes))
	if err != nil {
		t.Fatal(err)
	}

	pool := func(post *graph.Graph, topSeed uint64) *Collection {
		b := NewBatcher(cascade.IC)
		res := graph.NewResidual(g)
		if _, err := b.GrowTo(res, rng.New(77), theta, 1); err != nil {
			t.Fatal(err)
		}
		kept := b.Invalidate(dres.Touched)
		if kept == theta || kept == 0 {
			t.Fatalf("degenerate invalidation kept %d of %d", kept, theta)
		}
		if _, err := b.GrowTo(graph.NewResidual(post), rng.New(topSeed), theta, 1); err != nil {
			t.Fatal(err)
		}
		if b.Len() != theta {
			t.Fatalf("top-up reached %d of %d", b.Len(), theta)
		}
		return b.Collection()
	}
	a := pool(ng, 901)      // top-up on the delta-overlay graph
	b := pool(rebuilt, 902) // top-up on the full rebuild, different stream

	stat, df := 0.0, 0
	for u := 0; u < g.N(); u++ {
		ca, cb := countContaining(a, graph.NodeID(u)), countContaining(b, graph.NodeID(u))
		if ca+cb < 16 {
			continue
		}
		d := float64(ca - cb)
		stat += d * d / float64(ca+cb)
		df++
	}
	if df < 20 {
		t.Fatalf("only %d nodes had enough mass for the chi-square", df)
	}
	// stat ~ χ²(df) under the null; six sigmas of headroom keeps the fixed
	// seeds deterministic-green while still catching any systematic skew.
	limit := float64(df) + 6*math.Sqrt(2*float64(df))
	if stat > limit {
		t.Fatalf("chi-square %0.1f over %d nodes exceeds %0.1f: delta-graph top-up diverges from fresh sampling", stat, df, limit)
	}
}

// TestBatcherInvalidateNoReuse: with reuse off, Invalidate counts nothing
// as reused and leaves the pool alone — the next Sync regenerates from
// scratch, so no delta survivor is ever reused. With reuse on, the
// survivors are kept and counted.
func TestBatcherInvalidateNoReuse(t *testing.T) {
	g := fig1Graph()
	res := graph.NewResidual(g)
	touched := []graph.NodeID{2}
	for _, reuse := range []bool{false, true} {
		b := NewBatcher(cascade.IC)
		b.SetReuse(reuse)
		b.Sync(res)
		if _, err := b.GrowTo(res, rng.New(5), 200, 1); err != nil {
			t.Fatal(err)
		}
		kept := b.Invalidate(touched)
		if !reuse {
			if kept != 0 || b.Stats().RRReused != 0 || b.Len() != 200 {
				t.Fatalf("reuse off: kept %d, reused %d, len %d; want 0, 0, 200", kept, b.Stats().RRReused, b.Len())
			}
			if b.Sync(res) != 0 || b.Len() != 0 || b.Stats().RRReused != 0 {
				t.Fatalf("reuse off: Sync kept %d sets (reused %d)", b.Len(), b.Stats().RRReused)
			}
			continue
		}
		if kept <= 0 || kept >= 200 || b.Stats().RRReused != int64(kept) || b.Len() != kept {
			t.Fatalf("reuse on: kept %d of 200, reused %d, len %d", kept, b.Stats().RRReused, b.Len())
		}
	}
}
