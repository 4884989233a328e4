package graph

import (
	"slices"
	"testing"
	"unsafe"

	"repro/internal/rng"
)

// assertSameEdges checks that got and want list the same edges with the
// same probabilities, through Edges and through EdgeProbability on every
// edge and on one absent pair.
func assertSameEdges(t *testing.T, got, want *Graph, absent [2]NodeID) {
	t.Helper()
	ge, we := got.Edges(), want.Edges()
	if !slices.Equal(ge, we) {
		t.Fatalf("Edges differ: %d edges vs %d", len(ge), len(we))
	}
	for _, e := range we {
		if p, ok := got.EdgeProbability(e.From, e.To); !ok || p != e.P {
			t.Fatalf("EdgeProbability(%d, %d) = (%v, %v), want (%v, true)", e.From, e.To, p, ok, e.P)
		}
	}
	if _, ok := got.EdgeProbability(absent[0], absent[1]); ok {
		t.Fatalf("EdgeProbability finds the absent edge %v", absent)
	}
}

// TestApplyDeltaModeTransitionChain chains deltas across both storage
// modes: uniform → uniform (churn at each target's shared probability),
// uniform → mixed (an insert at a probability no 1/indeg equals), mixed →
// mixed (a second such insert), mixed → uniform (both deleted) and
// uniform → uniform again. Every step must equal Builder.Build on the
// edited edge list, out-side probabilities, Edges and EdgeProbability
// included, and store per-edge out-probabilities exactly when mixed.
func TestApplyDeltaModeTransitionChain(t *testing.T) {
	const n, m, k = 300, 2400, 12
	r := rng.New(11)
	edges := randomDeltaEdges(r, n, m, weightWC)
	g := MustFromEdges(n, true, edges)
	present := func(u, v NodeID) bool {
		_, ok := g.EdgeProbability(u, v)
		return ok
	}
	// oddInsert returns a fresh edge into a node that has in-edges, at a
	// probability that clashes with theirs.
	oddInsert := func() Edge {
		for {
			u, v := NodeID(r.Intn(n)), NodeID(r.Intn(n))
			if u != v && g.InDegree(v) > 0 && !present(u, v) {
				return Edge{From: u, To: v, P: 0.77}
			}
		}
	}
	var absent [2]NodeID
	for absent[0] == absent[1] || present(absent[0], absent[1]) {
		absent = [2]NodeID{NodeID(r.Intn(n)), NodeID(r.Intn(n))}
	}
	without := func(edges []Edge, drop ...Edge) []Edge {
		return slices.DeleteFunc(slices.Clone(edges), func(e Edge) bool {
			return slices.ContainsFunc(drop, func(d Edge) bool { return d.From == e.From && d.To == e.To })
		})
	}

	var odd []Edge
	steps := []struct {
		name    string
		uniform bool
		delta   func() (inserts, deletes, edited []Edge)
	}{
		{"uniform churn", true, func() ([]Edge, []Edge, []Edge) { return churnEdges(r, g, edges, n, k) }},
		{"demote", false, func() ([]Edge, []Edge, []Edge) {
			ins, dels, edited := churnEdges(r, g, edges, n, k)
			odd = append(odd, oddInsert())
			return append(ins, odd[0]), dels, append(edited, odd[0])
		}},
		{"mixed insert", false, func() ([]Edge, []Edge, []Edge) {
			odd = append(odd, oddInsert())
			return odd[1:], nil, append(slices.Clone(edges), odd[1])
		}},
		{"restore", true, func() ([]Edge, []Edge, []Edge) { return nil, odd, without(edges, odd...) }},
		{"uniform churn again", true, func() ([]Edge, []Edge, []Edge) { return churnEdges(r, g, edges, n, k) }},
	}
	for _, st := range steps {
		ins, dels, edited := st.delta()
		next, _, err := g.ApplyDelta(ins, dels)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if next.InUniform() != st.uniform {
			t.Fatalf("%s: InUniform %v, want %v", st.name, next.InUniform(), st.uniform)
		}
		if keeps := next.outP.Len() > 0; keeps == st.uniform {
			t.Fatalf("%s: uniform=%v graph keeps %d out-probabilities", st.name, st.uniform, next.outP.Len())
		}
		want := MustFromEdges(n, true, edited)
		assertGraphsEquivalent(t, next, want)
		assertSameEdges(t, next, want, absent)
		g, edges = next, edited
	}
}

// retainedBytes sums the capacities of every slice g holds, its
// success-count table arena apart; the table index map is not counted.
func retainedBytes(g *Graph) (arrays, tables uint64) {
	bytes := func(capacity int, elem uintptr) uint64 { return uint64(capacity) * uint64(elem) }
	arrays = bytes(cap(g.outRun), unsafe.Sizeof(span{})) +
		bytes(cap(g.outAdj.Base)+cap(g.outAdj.Over), unsafe.Sizeof(NodeID(0))) +
		bytes(cap(g.outP.Base)+cap(g.outP.Over), unsafe.Sizeof(float64(0))) +
		bytes(cap(g.inMeta), unsafe.Sizeof(InMeta{})) +
		bytes(cap(g.inAdj.Base)+cap(g.inAdj.Over), unsafe.Sizeof(NodeID(0))) +
		bytes(cap(g.inP.Base)+cap(g.inP.Over), unsafe.Sizeof(float64(0))) +
		bytes(cap(g.inProb), unsafe.Sizeof(float64(0))) +
		bytes(cap(g.inTabOff), unsafe.Sizeof(int32(0)))
	return arrays, bytes(cap(g.inTabThr), unsafe.Sizeof(uint32(0)))
}

// TestRetainedStorageBytes: a weighted-cascade graph keeps 8 bytes per
// arc (its target's and its source's IDs) and at most 40 per node besides
// its tables: Build allocates no per-edge probability on either side.
// After a chain of 16 churn deltas the graph holds at most twice that,
// the bound ApplyDelta's layout keeps each direction within.
func TestRetainedStorageBytes(t *testing.T) {
	const n, m, k = 2000, 40000, 40
	r := rng.New(17)
	edges := randomDeltaEdges(r, n, m, weightWC)
	g := MustFromEdges(n, true, edges)
	if g.outP.Base != nil || g.inP.Base != nil {
		t.Fatalf("Build kept per-edge probabilities: out %d, in %d", cap(g.outP.Base), cap(g.inP.Base))
	}
	bound := func(g *Graph) (retained, limit uint64) {
		arrays, tables := retainedBytes(g)
		return arrays + tables, 8*uint64(g.M()) + 40*uint64(g.N()) + tables
	}
	if retained, limit := bound(g); retained > limit {
		t.Fatalf("Build retains %d B, more than 8·m + 40·n + tables = %d B", retained, limit)
	}
	for i := 0; i < 16; i++ {
		ins, dels, edited := churnEdges(r, g, edges, n, k)
		next, _, err := g.ApplyDelta(ins, dels)
		if err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		g, edges = next, edited
	}
	if !g.InUniform() || g.outP.Len() != 0 {
		t.Fatalf("the churn chain left the graph uniform=%v with %d out-probabilities", g.InUniform(), g.outP.Len())
	}
	if retained, limit := bound(g); retained > 2*limit {
		t.Fatalf("after 16 deltas the graph retains %d B, more than twice 8·m + 40·n + tables = %d B", retained, limit)
	}
}
