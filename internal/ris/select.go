package ris

import (
	"container/heap"

	"repro/internal/graph"
)

// This file holds the CSR inverted-index build and greedy max-coverage
// selection (heap-based CELF). Both are serial; workers parallelize RR
// generation only, because sharding selection did not shorten it at the
// ≤ 2 workers every benchmark workload runs with (see README).

// BuildIndex materializes the CSR inverted index as one counting sort, or
// returns immediately if it is already valid. Per-node counts are
// prefix-summed into end offsets; the sets are then scattered from the
// last one backwards, each entry decrementing its node's offset, so every
// node's offset ends at its start and its set ids come out ascending.
// A collection holding dropped sets compacts first, so the index and the
// Marks over it number the live sets only. Queries (SetsContaining, Cov,
// Marks) and the greedy build it on first use. The index arrays are
// retained, so steady-state rebuilds (one per drop or top-up) allocate
// nothing.
func (c *Collection) BuildIndex() {
	if c.invValid {
		return
	}
	if c.deadSets > 0 {
		c.compact()
	}
	if cap(c.invOff) < c.n+1 {
		c.invOff = make([]int32, c.n+1)
	} else {
		c.invOff = c.invOff[:c.n+1]
		clear(c.invOff)
	}
	for _, u := range c.arena {
		c.invOff[u]++
	}
	end := int32(0)
	for u := 0; u < c.n; u++ {
		end += c.invOff[u]
		c.invOff[u] = end
	}
	c.invOff[c.n] = end

	if cap(c.invArena) < len(c.arena) {
		c.invArena = make([]int32, len(c.arena))
	} else {
		c.invArena = c.invArena[:len(c.arena)]
	}
	for i := c.Len() - 1; i >= 0; i-- {
		for _, u := range c.arena[c.offsets[i]:c.offsets[i+1]] {
			c.invOff[u]--
			c.invArena[c.invOff[u]] = int32(i)
		}
	}
	c.invValid = true
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
// candidates are all n nodes (IMM's selection phase).
func (c *Collection) GreedyMaxCoverage(candidates []graph.NodeID, k int) ([]graph.NodeID, []int) {
	c.BuildIndex()
	m := c.NewMarks()
	h := make(celfHeap, len(candidates))
	for i, u := range candidates {
		h[i] = celfEntry{node: u, gain: int(c.invOff[u+1] - c.invOff[u])}
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
	return chosen, cum
}
