package ris

import (
	"container/heap"
	"slices"

	"repro/internal/graph"
)

// This file holds greedy max-coverage selection (heap-based CELF). It is
// serial; workers parallelize RR generation only, because sharding
// selection did not shorten it at the ≤ 2 workers every benchmark
// workload runs with (see README).

// selectScratch is GreedyMaxCoverage's working storage, kept on the
// collection: IMM selects once per θ guess and once more on the final
// sample, and would otherwise allocate n counts, a candidate heap and a
// mark per set on every call.
type selectScratch struct {
	held  []int32 // live sets holding each node
	heap  celfHeap
	marks *Marks
}

// celfEntry is a lazily evaluated candidate: gain is its marginal coverage
// as of selection round `round`.
type celfEntry struct {
	node  graph.NodeID
	gain  int
	round int
}

// celfHeap is a max-heap on (gain, then smaller node ID) so selection is
// deterministic under ties.
type celfHeap []celfEntry

func (h celfHeap) Len() int { return len(h) }
func (h celfHeap) Less(i, j int) bool {
	if h[i].gain != h[j].gain {
		return h[i].gain > h[j].gain
	}
	return h[i].node < h[j].node
}
func (h celfHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *celfHeap) Push(x any)   { *h = append(*h, x.(celfEntry)) }
func (h *celfHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// popTop removes and returns the heap's top entry (heap.Pop without the
// interface boxing).
func (h *celfHeap) popTop() celfEntry {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	if n > 0 {
		heap.Fix(h, 0)
	}
	return top
}

// GreedyMaxCoverage selects up to k nodes from candidates maximizing
// coverage, the standard RIS selection step of IMM. It returns the chosen
// nodes in selection order and their cumulative coverage after each pick.
//
// The implementation is heap-based CELF: marginal coverage only decreases
// as nodes are selected, so each top either carries a gain evaluated this
// round (fresh — accept it) or a stale upper bound (re-evaluate in place
// and sift). A node is picked only when its fresh gain tops every other
// entry's upper bound, so the pick is the (gain, smaller-ID) argmax of the
// true marginals, exactly as plain greedy's full rescan
// (TestGreedyMaxCoverageMatchesPlainGreedy) — at O(log |C|) heap work plus
// the few re-evaluations lazy greedy needs per pick, which matters when
// candidates are all n nodes (IMM's selection phase). The initial gains
// are the candidates' set counts, taken in one pass over the arena; a
// candidate no live set holds could only be picked at gain zero, which
// ends the selection, so it never enters the heap. Marginals walk the
// node-to-set index (Marks). The counts, heap and marks are kept on the
// collection (selectScratch) for the next call.
func (c *Collection) GreedyMaxCoverage(candidates []graph.NodeID, k int) ([]graph.NodeID, []int) {
	sc := &c.sel
	if sc.marks == nil {
		sc.marks = c.NewMarks()
	} else {
		sc.marks.Reset()
	}
	m := sc.marks
	held := slices.Grow(sc.held[:0], c.n)[:c.n]
	clear(held)
	sc.held = held
	for _, u := range c.arena {
		if u >= 0 { // a dropped set's entries are complemented
			held[u]++
		}
	}
	h := slices.Grow(sc.heap[:0], len(candidates))
	for _, u := range candidates {
		if held[u] > 0 {
			h = append(h, celfEntry{node: u, gain: int(held[u])})
		}
	}
	heap.Init(&h)
	var chosen []graph.NodeID
	var cum []int
	for len(chosen) < k && h.Len() > 0 {
		round := len(chosen)
		if top := h[0]; top.round != round {
			h[0].gain = m.Marginal(top.node)
			h[0].round = round
			heap.Fix(&h, 0)
			continue
		}
		if h[0].gain == 0 {
			// The best fresh marginal is zero; nothing can add coverage.
			break
		}
		top := h.popTop()
		m.Cover(top.node)
		chosen = append(chosen, top.node)
		cum = append(cum, m.Count())
	}
	sc.heap = h[:0]
	return chosen, cum
}
