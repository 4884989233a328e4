package graph

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/rng"
)

// TestApplyDeltaConcurrentSiblings races two delta chains off one lineage
// tip: both goroutines derive a child of the same parent at once (one
// wins the tip claim and appends in place, the other must compact), then
// chain 20 more deltas each, while a third goroutine keeps reading the
// parent. Afterwards the parent and every descendant must still equal
// their Builder.Build rebuilds per node — no write ever lands inside a
// graph's visible arenas. Run it under -race.
func TestApplyDeltaConcurrentSiblings(t *testing.T) {
	const n, chain = 60, 20
	for _, weighting := range []int{weightWC, weightMixed} {
		// Weighted-cascade chains churn the way gen.ChurnDeltas does, which
		// keeps compressed storage, so new success-count tables keep
		// landing in the shared table arena; mixed chains also cross
		// storage modes.
		delta := func(r *rng.RNG, g *Graph, edges []Edge) (inserts, deletes, edited []Edge) {
			if weighting == weightWC {
				return churnEdges(r, g, edges, n, 5)
			}
			return randomDelta(r, g, edges, n)
		}
		// The parent is a few deltas down its lineage, so its arenas —
		// the table arena included — carry spare capacity both children
		// could reach.
		r := rng.New(7 + uint64(weighting))
		parentEdges := randomDeltaEdges(r, n, 240, weighting)
		parent := MustFromEdges(n, true, parentEdges)
		for i := 0; i < 3; i++ {
			ins, dels, edited := delta(r, parent, parentEdges)
			next, _, err := parent.ApplyDelta(ins, dels)
			if err != nil {
				t.Fatal(err)
			}
			parent, parentEdges = next, edited
		}
		type step struct {
			g     *Graph
			edges []Edge
		}
		chains := make([][]step, 2)
		errs := make([]error, 2)
		start := make(chan struct{})
		stop := make(chan struct{})
		var readers, writers sync.WaitGroup
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for v := NodeID(0); v < n; v++ {
					parent.InNeighbors(v)
					parent.OutNeighbors(v)
				}
				runtime.Gosched()
			}
		}()
		for c := range chains {
			cr := rng.New(uint64(100*weighting + c))
			writers.Add(1)
			go func() {
				defer writers.Done()
				<-start
				cur, curEdges := parent, parentEdges
				for i := 0; i < chain; i++ {
					ins, dels, edited := delta(cr, cur, curEdges)
					next, _, err := cur.ApplyDelta(ins, dels)
					if err != nil {
						errs[c] = err
						return
					}
					chains[c] = append(chains[c], step{next, edited})
					cur, curEdges = next, edited
				}
			}()
		}
		close(start)
		writers.Wait()
		close(stop)
		readers.Wait()
		for c, err := range errs {
			if err != nil {
				t.Fatalf("weighting %d chain %d: %v", weighting, c, err)
			}
		}
		assertGraphsEquivalent(t, parent, MustFromEdges(n, true, parentEdges))
		for _, steps := range chains {
			for _, s := range steps {
				assertGraphsEquivalent(t, s.g, MustFromEdges(n, true, s.edges))
			}
		}
		if chains[0][0].g.lin == chains[1][0].g.lin {
			t.Fatalf("weighting %d: both sibling children share one lineage", weighting)
		}
	}
}

// churnEdges draws a chained churn delta over a live edge list: k distinct
// existing edges deleted and k fresh ones inserted, each adopting its
// target's shared in-probability when there is one, as gen.ChurnDeltas
// does.
func churnEdges(r *rng.RNG, g *Graph, edges []Edge, n, k int) (inserts, deletes, edited []Edge) {
	present := make(map[[2]NodeID]bool, len(edges))
	for _, e := range edges {
		present[[2]NodeID{e.From, e.To}] = true
	}
	gone := make(map[int]bool, k)
	for len(gone) < k {
		i := r.Intn(len(edges))
		if !gone[i] {
			gone[i] = true
			deletes = append(deletes, edges[i])
			delete(present, [2]NodeID{edges[i].From, edges[i].To})
		}
	}
	for len(inserts) < k {
		u, v := NodeID(r.Intn(n)), NodeID(r.Intn(n))
		if u == v || present[[2]NodeID{u, v}] {
			continue
		}
		p := 0.1
		if _, q, ok := g.InNeighborsUniform(v); ok && q > 0 {
			p = q
		}
		present[[2]NodeID{u, v}] = true
		inserts = append(inserts, Edge{From: u, To: v, P: p})
	}
	edited = make([]Edge, 0, len(edges))
	for i, e := range edges {
		if !gone[i] {
			edited = append(edited, e)
		}
	}
	return inserts, deletes, append(edited, inserts...)
}

// TestApplyDeltaArenaBound: over 200 chained 0.1% churn deltas the lineage
// keeps appending in place and compacting, and no arena ever holds more
// than twice its live entries.
func TestApplyDeltaArenaBound(t *testing.T) {
	const n, m = 2000, 20000
	r := rng.New(3)
	edges := randomDeltaEdges(r, n, m, weightWC)
	g := MustFromEdges(n, true, edges)
	inPlace, compacted := 0, 0
	for i := 0; i < 200; i++ {
		ins, dels, edited := churnEdges(r, g, edges, n, m/1000)
		next, _, err := g.ApplyDelta(ins, dels)
		if err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		if next.lin == g.lin && &next.inAdj[0] == &g.inAdj[0] {
			inPlace++
		} else {
			compacted++
		}
		live := int(next.M())
		for name, l := range map[string]int{
			"outAdj": len(next.outAdj), "outP": len(next.outP), "inAdj": len(next.inAdj),
		} {
			if l > 2*live {
				t.Fatalf("delta %d: %s arena holds %d entries for %d live", i, name, l, live)
			}
		}
		g, edges = next, edited
	}
	if inPlace == 0 || compacted < 2 {
		t.Fatalf("%d in-place in-side appends, %d compactions: the chain never exercised both", inPlace, compacted)
	}
	assertGraphsEquivalent(t, g, MustFromEdges(n, true, edges))
}

// TestApplyDeltaChainAllocations: the first delta off a Build graph copies
// every run into fresh arenas; a chained delta after it appends in place
// and allocates at most a quarter of the first one's bytes.
func TestApplyDeltaChainAllocations(t *testing.T) {
	const n, m = 2000, 20000
	r := rng.New(5)
	edges := randomDeltaEdges(r, n, m, weightWC)
	g := MustFromEdges(n, true, edges)
	apply := func() uint64 {
		t.Helper()
		ins, dels, edited := churnEdges(r, g, edges, n, m/1000)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		next, _, err := g.ApplyDelta(ins, dels)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		g, edges = next, edited
		return after.TotalAlloc - before.TotalAlloc
	}
	first := apply()
	for i := 0; i < 3; i++ {
		if chained := apply(); 4*chained > first {
			t.Fatalf("chained delta %d allocated %d bytes, more than a quarter of the first delta's %d", i+1, chained, first)
		}
	}
	assertGraphsEquivalent(t, g, MustFromEdges(n, true, edges))
}
