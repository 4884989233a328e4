package ris

import (
	"testing"

	"repro/internal/cascade"
	"repro/internal/graph"
	"repro/internal/rng"
)

// everyThird returns every third node of n as a target set, so the
// trackers under test see entries of targets and of other nodes.
func everyThird(n int) []graph.NodeID {
	var targets []graph.NodeID
	for u := graph.NodeID(0); int(u) < n; u += 3 {
		targets = append(targets, u)
	}
	return targets
}

// newCoverage attaches a tracker of every third node's containment counts
// to c that has counted the sets already present, as a Batcher's tracker
// is after a Count.
func newCoverage(c *Collection) *Coverage {
	c.coverage = &Coverage{c: c}
	c.coverage.setTargets(NewTargetIndex(c.n, everyThird(c.n)))
	c.coverage.Update()
	return c.coverage
}

// checkCoverageMatchesIndex cross-checks the incremental tracker against
// the inverted-index count for every target.
func checkCoverageMatchesIndex(t *testing.T, c *Collection, cov *Coverage, where string) {
	t.Helper()
	for _, u := range everyThird(c.n) {
		if got, want := cov.Count(u), countContaining(c, u); got != want {
			t.Fatalf("%s: coverage count of target %d = %d, index says %d", where, u, got, want)
		}
	}
}

// TestCountPanicsOffTargets: a tracker holds counts for its targets only,
// so asking for any other node is a caller's bug and panics.
func TestCountPanicsOffTargets(t *testing.T) {
	b := NewBatcher(cascade.IC)
	g := wcTestGraph(t)
	b.SetTargets(NewTargetIndex(g.N(), []graph.NodeID{2, 70}))
	b.GrowTo(graph.NewResidual(g), rng.New(1), 100, 1)
	_ = b.Count(70)
	defer func() {
		if recover() == nil {
			t.Fatal("Count of a non-target did not panic")
		}
	}()
	b.Count(3)
}

// TestCoverageTracksAppendsFiltersResets drives a Coverage through the
// adaptive round loop's lifecycle — append batches, filter on a mutated
// residual, top up, reset — and cross-checks the counts against the CSR
// inverted index at every step.
func TestCoverageTracksAppendsFiltersResets(t *testing.T) {
	g := wcTestGraph(t)
	res := graph.NewResidual(g)
	pool := newSamplerPool(cascade.IC)
	parent := rng.New(41)
	c := NewCollection(res.FullN())
	pool.AppendParallel(c, res, parent, 200, 2)
	cov := newCoverage(c) // attaches mid-life: must count existing sets
	checkCoverageMatchesIndex(t, c, cov, "after attach")

	for round := 0; round < 5; round++ {
		pool.AppendParallel(c, res, parent, 150, 2)
		cov.Update()
		checkCoverageMatchesIndex(t, c, cov, "after batch")

		res.Remove(graph.NodeID(7 * (round + 1)))
		kept := c.Filter(res)
		if kept != c.Len() {
			t.Fatalf("Filter reported %d kept, Len is %d", kept, c.Len())
		}
		checkCoverageMatchesIndex(t, c, cov, "after filter")
	}

	c.Reset()
	for _, u := range everyThird(c.n) {
		if cov.Count(u) != 0 {
			t.Fatalf("target %d count %d after Reset", u, cov.Count(u))
		}
	}
	// The tracker must keep working after a reset (warm storage).
	pool.AppendParallel(c, res, parent, 120, 2)
	cov.Update()
	checkCoverageMatchesIndex(t, c, cov, "after reset + refill")
}

// TestCoverageFilterWithUncountedTail: Filter must treat sets appended
// after the last Update (not yet folded into the counts) as uncounted —
// dropping one must not decrement, keeping one must leave it for the next
// Update.
func TestCoverageFilterWithUncountedTail(t *testing.T) {
	g := graph.MustFromEdges(4, true, []graph.Edge{
		{From: 0, To: 1, P: 0.5},
		{From: 2, To: 3, P: 0.5},
	})
	res := graph.NewResidual(g)
	c := NewCollection(4)
	c.AddSet(1, []graph.NodeID{1, 0})
	cov := newCoverage(c) // counts {1,0}: target 0 only
	c.AddSet(3, []graph.NodeID{3, 2})
	c.AddSet(0, []graph.NodeID{0}) // uncounted tail
	res.Remove(3)
	if kept := c.Filter(res); kept != 2 {
		t.Fatalf("kept %d sets, want 2", kept)
	}
	// {3,2} was never counted, so its drop must not touch target 3's
	// count, and {0} is not counted before the Update.
	if cov.Count(3) != 0 || cov.Count(0) != 1 {
		t.Fatalf("targets 3 and 0 count %d and %d before Update, want 0 and 1", cov.Count(3), cov.Count(0))
	}
	cov.Update()
	checkCoverageMatchesIndex(t, c, cov, "after tail update")
}

// TestBatcherAccountingAndReuse: the shared draw/filter/top-up cycle must
// reproduce the accounting the adaptive loops used to keep
// by hand: reused counts the survivors of Sync, drawn/requested the
// top-ups, and reuse-off resets instead of filtering.
func TestBatcherAccountingAndReuse(t *testing.T) {
	g := wcTestGraph(t)
	res := graph.NewResidual(g)
	b := NewBatcher(cascade.IC)
	b.SetTargets(NewTargetIndex(g.N(), everyThird(g.N())))
	parent := rng.New(43)
	if n, err := b.GrowTo(res, parent, 500, 2); n != 500 || err != nil {
		t.Fatalf("GrowTo returned %d, %v, want 500, nil", n, err)
	}
	if st := b.Stats(); st.RRDrawn != 500 || st.RRRequested != 500 || st.RRBatches != 1 || st.RRReused != 0 {
		t.Fatalf("fresh grow accounting drawn=%d requested=%d batches=%d reused=%d",
			st.RRDrawn, st.RRRequested, st.RRBatches, st.RRReused)
	}
	// Growing to a target at or below Len draws nothing.
	if _, _ = b.GrowTo(res, parent, 400, 2); b.Stats().RRDrawn != 500 || b.Stats().RRBatches != 1 {
		t.Fatalf("no-op grow drew sets: drawn=%d batches=%d", b.Stats().RRDrawn, b.Stats().RRBatches)
	}
	res.Remove(3)
	kept := b.Sync(res)
	if kept <= 0 || kept >= 500 {
		t.Fatalf("Sync kept %d of 500 after removing a hub-adjacent node", kept)
	}
	if b.Stats().RRReused != int64(kept) {
		t.Fatalf("reused %d, want %d", b.Stats().RRReused, kept)
	}
	b.GrowTo(res, parent, 500, 2)
	if b.Len() != 500 || b.Stats().RRDrawn != int64(500+500-kept) {
		t.Fatalf("top-up len=%d drawn=%d (kept=%d)", b.Len(), b.Stats().RRDrawn, kept)
	}
	for _, u := range everyThird(g.N()) {
		if got, want := b.Count(u), countContaining(b.Collection(), u); got != want {
			t.Fatalf("after top-up: Count(%d) = %d, index says %d", u, got, want)
		}
	}
	if st := b.Stats(); st.RRPeakBytes <= 0 || st.SamplingNS < 0 {
		t.Fatalf("degenerate accounting peak=%d ns=%d", st.RRPeakBytes, st.SamplingNS)
	}

	// Reuse off: Sync resets, keeps nothing, reuses nothing.
	b2 := NewBatcher(cascade.IC)
	b2.SetReuse(false)
	parent2 := rng.New(43)
	res2 := graph.NewResidual(g)
	b2.GrowTo(res2, parent2, 300, 2)
	res2.Remove(3)
	if kept := b2.Sync(res2); kept != 0 || b2.Stats().RRReused != 0 || b2.Len() != 0 {
		t.Fatalf("no-reuse Sync kept=%d reused=%d len=%d", kept, b2.Stats().RRReused, b2.Len())
	}
}

// TestBatcherWarmLoopNoAllocs extends the PR 3 allocation budget to the
// sequential controller's batch loop: once the batcher is warm (arena,
// coverage counts, drop bitset, pool scratch all grown), a filter +
// delta invalidation + top-up + coverage round performs zero allocations.
func TestBatcherWarmLoopNoAllocs(t *testing.T) {
	g := wcTestGraph(t)
	b := NewBatcher(cascade.IC)
	first50 := make([]graph.NodeID, 50)
	for u := range first50 {
		first50[u] = graph.NodeID(u)
	}
	b.SetTargets(NewTargetIndex(g.N(), first50))
	parent := rng.New(47)
	// Warm up: grow past the steady-state target once so the arena and
	// index-free coverage storage reach capacity.
	res := graph.NewResidual(g)
	b.GrowTo(res, parent, 3000, 1)
	next := graph.NodeID(1)
	avg := testing.AllocsPerRun(20, func() {
		res.Remove(next) // mutate so Sync actually filters
		b.Invalidate([]graph.NodeID{next + 100})
		next++
		b.Sync(res)
		b.GrowTo(res, parent, 3000, 1)
		for u := 0; u < 50; u++ {
			_ = b.Count(graph.NodeID(u))
		}
	})
	if avg != 0 {
		t.Fatalf("warm batcher round allocates %.1f per cycle, want 0", avg)
	}
}
