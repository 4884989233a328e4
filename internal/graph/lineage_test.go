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

// sameArray reports whether two slices share their backing array.
func sameArray[T any](a, b []T) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0]
}

// placement names how ApplyDelta laid out one direction of next, derived
// from prev: "append" past prev's overflow, "compact" into a fresh
// overflow beside the shared base, or "fold" into a fresh base.
func placement(prev, next Arena[NodeID]) string {
	switch {
	case !sameArray(prev.Base, next.Base) && len(prev.Base) > 0:
		return "fold"
	case sameArray(prev.Over, next.Over):
		return "append"
	default:
		return "compact"
	}
}

// TestApplyDeltaArenaBound: over 200 chained 0.1% churn deltas each
// direction keeps appending to its overflow in place, compacting the
// overflow beside the shared base, and now and then folding both into a
// new base — and base plus overflow never hold more than twice the live
// entries.
func TestApplyDeltaArenaBound(t *testing.T) {
	const n, m = 2000, 20000
	r := rng.New(3)
	edges := randomDeltaEdges(r, n, m, weightWC)
	g := MustFromEdges(n, true, edges)
	seen := map[string]int{}
	for i := 0; i < 200; i++ {
		ins, dels, edited := churnEdges(r, g, edges, n, m/1000)
		next, _, err := g.ApplyDelta(ins, dels)
		if err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		if i > 0 { // the first delta has no overflow to append to
			seen["out "+placement(g.outAdj, next.outAdj)]++
			seen["in "+placement(g.inAdj, next.inAdj)]++
		}
		live := int(next.M())
		for name, l := range map[string]int{
			"outAdj": next.outAdj.Len(), "outP": len(next.outP.Base) + len(next.outP.Over), "inAdj": next.inAdj.Len(),
		} {
			if l > 2*live {
				t.Fatalf("delta %d: %s arena holds %d entries for %d live", i, name, l, live)
			}
		}
		g, edges = next, edited
	}
	for _, dir := range []string{"out", "in"} {
		for _, p := range []string{"append", "compact", "fold"} {
			if seen[dir+" "+p] == 0 {
				t.Fatalf("the chain never exercised an %s-side %s (placements: %v)", dir, p, seen)
			}
		}
	}
	assertGraphsEquivalent(t, g, MustFromEdges(n, true, edges))
}

// TestApplyDeltaChainAllocations: the first delta off a shared Build graph
// allocates O(N + Δ·deg) — the per-node arrays, plus its touched runs with
// the overflow's room — far below the bytes of the base arenas it no
// longer copies. Chained deltas stay within the same kind of bound, with
// the runs the whole chain has rewritten in place of the delta's own: an
// overflow compaction moves those, with room for eight more deltas.
func TestApplyDeltaChainAllocations(t *testing.T) {
	const n, m, k = 2000, 120000, 10
	r := rng.New(5)
	edges := randomDeltaEdges(r, n, m, weightWC)
	g := MustFromEdges(n, true, edges)
	baseBytes := uint64(m) * (4 + 4)        // outAdj and inAdj; no outP on a compressed graph
	perNode := uint64(n) * (8 + 16 + 8 + 4) // outRun, inMeta, inProb and inTabOff
	rewritten := uint64(0)
	for i := 0; i < 6; i++ {
		ins, dels, edited := churnEdges(r, g, edges, n, k)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		next, dres, err := g.ApplyDelta(ins, dels)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		// Each rewritten run costs its in-entries (sources) or out-entries
		// (targets; the compressed graph keeps no per-edge probabilities).
		for _, v := range dres.Touched {
			rewritten += 4 * uint64(next.InDegree(v))
		}
		for _, e := range append(ins, dels...) {
			rewritten += 4 * uint64(next.OutDegree(e.From))
		}
		bound := perNode + 9*rewritten + 32<<10
		if i == 0 && 4*bound > baseBytes {
			t.Fatalf("bound %d B is not far below the %d B of base arenas; the test graph is too small", bound, baseBytes)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > bound {
			t.Fatalf("delta %d allocated %d B, more than the O(N + Δ·deg) bound of %d B", i, got, bound)
		}
		g, edges = next, edited
	}
	assertGraphsEquivalent(t, g, MustFromEdges(n, true, edges))
}

// TestApplyDeltaSiblingsShareBase: sibling deltas derived concurrently off
// one Builder.Build graph share its base arenas by identity — none copies
// the graph — and so do their chained descendants until a fold; the base
// graph and every derived one still equal their rebuilds. Run it under
// -race: the siblings read the base while each appends to its own
// overflow.
func TestApplyDeltaSiblingsShareBase(t *testing.T) {
	const n, m, siblings, chain = 300, 3000, 4, 6
	for _, weighting := range []int{weightWC, weightMixed} {
		r := rng.New(11 + uint64(weighting))
		baseEdges := randomDeltaEdges(r, n, m, weighting)
		base := MustFromEdges(n, true, baseEdges)
		type step struct {
			g         *Graph
			edges     []Edge
			ins, dels []Edge
			touched   []NodeID
		}
		chains := make([][]step, siblings)
		errs := make([]error, siblings)
		var wg sync.WaitGroup
		for c := range chains {
			cr := rng.New(uint64(1000*weighting + c))
			wg.Add(1)
			go func() {
				defer wg.Done()
				cur, curEdges := base, baseEdges
				for i := 0; i < chain; i++ {
					ins, dels, edited := churnEdges(cr, cur, curEdges, n, 5)
					next, dres, err := cur.ApplyDelta(ins, dels)
					if err != nil {
						errs[c] = err
						return
					}
					chains[c] = append(chains[c], step{next, edited, ins, dels, dres.Touched})
					cur, curEdges = next, edited
				}
			}()
		}
		wg.Wait()
		for c, err := range errs {
			if err != nil {
				t.Fatalf("weighting %d sibling %d: %v", weighting, c, err)
			}
		}
		assertGraphsEquivalent(t, base, MustFromEdges(n, true, baseEdges))
		for c, steps := range chains {
			first := steps[0].g
			if !sameArray(first.outAdj.Base, base.outAdj.Base) || !sameArray(first.inAdj.Base, base.inAdj.Base) {
				t.Fatalf("weighting %d sibling %d: the first delta copied the base arenas", weighting, c)
			}
			if !base.InUniform() && !first.InUniform() &&
				(!sameArray(first.outP.Base, base.outP.Base) || !sameArray(first.inP.Base, base.inP.Base)) {
				t.Fatalf("weighting %d sibling %d: the first delta copied the per-edge probabilities", weighting, c)
			}
			// The overflows hold exactly the touched runs.
			outRuns, inRuns := 0, 0
			sources := map[NodeID]bool{}
			for _, e := range append(steps[0].ins, steps[0].dels...) {
				if !sources[e.From] {
					sources[e.From] = true
					outRuns += first.OutDegree(e.From)
				}
			}
			for _, v := range steps[0].touched {
				inRuns += first.InDegree(v)
			}
			if len(first.outAdj.Over) != outRuns {
				t.Fatalf("weighting %d sibling %d: out overflow of %d entries, touched runs hold %d", weighting, c, len(first.outAdj.Over), outRuns)
			}
			if first.InUniform() == base.InUniform() && len(first.inAdj.Over) != inRuns {
				t.Fatalf("weighting %d sibling %d: in overflow of %d entries, touched runs hold %d", weighting, c, len(first.inAdj.Over), inRuns)
			}
			prev := first
			for i, s := range steps {
				if i > 0 && placement(prev.outAdj, s.g.outAdj) != "fold" && !sameArray(s.g.outAdj.Base, base.outAdj.Base) {
					t.Fatalf("weighting %d sibling %d step %d: out base replaced without a fold", weighting, c, i)
				}
				assertGraphsEquivalent(t, s.g, MustFromEdges(n, true, s.edges))
				prev = s.g
			}
		}
	}
}
