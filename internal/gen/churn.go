package gen

import (
	"cmp"
	"slices"

	"repro/internal/graph"
	"repro/internal/rng"
)

// ChurnDeltas draws a deterministic sliding-window edge delta for g: it
// picks max(1, round(frac·M)) distinct existing directed edges to delete
// and the same number of fresh directed edges to insert, so the edge count
// is conserved while the topology drifts. Inserted edges adopt the
// target's shared in-probability when the graph stores compressed
// in-probabilities (keeping the fast delta path and the weighted-cascade
// flavor), and fall back to 0.1 on per-edge graphs or into previously
// in-degree-0 targets.
//
// The delta is a pure function of (g, frac, r's stream): temporal sweeps
// and the service mutate endpoint replay it bit-identically from a seed.
// The returned slices are valid arguments for graph.ApplyDelta on g.
func ChurnDeltas(g *graph.Graph, frac float64, r *rng.RNG) (inserts, deletes []graph.Edge) {
	n, m := g.N(), g.M()
	if n < 2 {
		return nil, nil
	}
	k := int(float64(frac*float64(m)) + 0.5)
	if k < 1 {
		k = 1
	}
	if int64(k) > m {
		k = int(m)
	}

	// Deletes: distinct random edge ranks in out-CSR order (source-major),
	// drawn one per try. Each batch of draws is resolved to (source,
	// target) pairs by one sweep over the out-degrees in rank order, then
	// taken in draw order; a pair already chosen is rejected, and the next
	// batch draws only as many ranks as were rejected, so every try costs
	// exactly one draw. Distinct pairs only, so the delta stays unambiguous
	// even on graphs with parallel edges.
	type rank struct {
		idx int64
		at  int // position in draw order
	}
	chosen := make(map[[2]graph.NodeID]bool, 2*k)
	batch := make([]rank, 0, k)
	pairs := make([][2]graph.NodeID, k)
	for tries, limit := 0, 100*k+100; len(deletes) < k && tries < limit; {
		draws := min(k-len(deletes), limit-tries)
		tries += draws
		batch = batch[:0]
		for j := 0; j < draws; j++ {
			batch = append(batch, rank{int64(r.Intn(int(m))), j})
		}
		slices.SortFunc(batch, func(a, b rank) int { return cmp.Compare(a.idx, b.idx) })
		v, lo, hi := 0, int64(0), int64(g.OutDegree(0)) // node v owns ranks [lo, hi)
		for _, d := range batch {
			for hi <= d.idx {
				v++
				lo, hi = hi, hi+int64(g.OutDegree(graph.NodeID(v)))
			}
			pairs[d.at] = [2]graph.NodeID{graph.NodeID(v), g.OutTargets(graph.NodeID(v))[d.idx-lo]}
		}
		for _, pair := range pairs[:draws] {
			if chosen[pair] {
				continue
			}
			chosen[pair] = true
			deletes = append(deletes, graph.Edge{From: pair[0], To: pair[1]})
		}
	}

	// Inserts: fresh pairs — absent from g and from this delta.
	want := len(deletes)
	for tries := 0; len(inserts) < want && tries < 100*want+100; tries++ {
		u := graph.NodeID(r.Intn(n))
		v := graph.NodeID(r.Intn(n))
		pair := [2]graph.NodeID{u, v}
		if u == v || chosen[pair] {
			continue
		}
		if _, exists := g.EdgeProbability(u, v); exists {
			continue
		}
		p := 0.1
		if _, q, ok := g.InNeighborsUniform(v); ok && q > 0 {
			p = q
		}
		chosen[pair] = true
		inserts = append(inserts, graph.Edge{From: u, To: v, P: p})
	}
	return inserts, deletes
}
