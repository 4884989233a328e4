package ris

import (
	"container/heap"

	"repro/internal/graph"
)

// This file implements the coverage queries of the paper over a
// Collection: CovR(S), marginal coverage CovR(u|S), and greedy
// max-coverage selection (heap-based CELF).

// Cov returns CovR(S): the number of RR sets intersecting S. It reuses an
// internal mark buffer, so repeated queries allocate nothing after the
// first.
func (c *Collection) Cov(s []graph.NodeID) int {
	if c.scratch == nil {
		c.scratch = c.NewMarks()
	}
	c.scratch.Reset()
	c.scratch.CoverAll(s)
	return c.scratch.Count()
}

// Marks is a reusable coverage bitmap for incremental queries: mark the
// RR sets covered by a base set once, then ask marginal coverages of many
// candidate nodes in O(|SetsContaining(u)|) each. Reset is O(1) via
// generation stamps, so one Marks serves many queries without
// reallocation. A Marks is invalidated by Collection.Filter (set ids are
// compacted); create a fresh one afterwards.
type Marks struct {
	c     *Collection
	stamp []uint32 // stamp[id] == gen means RR set id is covered
	gen   uint32
	count int
}

// NewMarks creates an empty mark state over c.
func (c *Collection) NewMarks() *Marks {
	return &Marks{c: c, stamp: make([]uint32, c.Len()), gen: 1}
}

// Reset clears the mark state in O(1) (amortized; it grows the stamp array
// if RR sets were added since creation and re-zeroes on generation wrap).
func (m *Marks) Reset() {
	if len(m.stamp) < m.c.Len() {
		grown := make([]uint32, m.c.Len())
		copy(grown, m.stamp)
		m.stamp = grown
	}
	m.gen++
	if m.gen == 0 { // wrapped: stale stamps could collide, so re-zero
		for i := range m.stamp {
			m.stamp[i] = 0
		}
		m.gen = 1
	}
	m.count = 0
}

// Count returns the number of currently covered RR sets.
func (m *Marks) Count() int { return m.count }

// Cover marks every RR set containing u and returns the number of newly
// covered sets (the marginal coverage of u at the time of the call).
func (m *Marks) Cover(u graph.NodeID) int {
	gained := 0
	for _, id := range m.c.SetsContaining(u) {
		if m.stamp[id] != m.gen {
			m.stamp[id] = m.gen
			m.count++
			gained++
		}
	}
	return gained
}

// CoverAll marks the RR sets covered by each node of s.
func (m *Marks) CoverAll(s []graph.NodeID) {
	for _, u := range s {
		m.Cover(u)
	}
}

// Marginal returns CovR(u | marked): the number of RR sets containing u
// that are not yet covered, without mutating the state.
func (m *Marks) Marginal(u graph.NodeID) int {
	gained := 0
	for _, id := range m.c.SetsContaining(u) {
		if m.stamp[id] != m.gen {
			gained++
		}
	}
	return gained
}

// MarginalCoverage returns CovR(u | S) = Cov(S ∪ {u}) − Cov(S) by building
// a fresh mark state. Convenience for one-shot queries; loops should use
// Marks directly.
func (c *Collection) MarginalCoverage(u graph.NodeID, s []graph.NodeID) int {
	m := c.NewMarks()
	m.CoverAll(s)
	return m.Marginal(u)
}

// EstimateSpread converts a coverage count into a spread estimate on a
// graph (or residual) with nAlive nodes: nAlive * cov / θ.
func EstimateSpread(cov, theta, nAlive int) float64 {
	if theta == 0 {
		return 0
	}
	return float64(nAlive) * float64(cov) / float64(theta)
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

// GreedyMaxCoverage selects up to k nodes from candidates maximizing
// coverage, the standard RIS selection step (used by IMM and the
// nonadaptive baselines). It returns the chosen nodes in selection order
// and their cumulative coverage after each pick.
//
// The implementation is heap-based CELF: marginal coverage only decreases
// as nodes are selected, so each pop either carries a gain evaluated this
// round (fresh — accept it) or a stale upper bound (re-evaluate and sift).
// This replaces a full O(|C|) rescan per pick with O(log |C|) heap work
// plus the few re-evaluations lazy greedy actually needs, which matters
// when candidates are all n nodes (IMM's selection phase).
func (c *Collection) GreedyMaxCoverage(candidates []graph.NodeID, k int) ([]graph.NodeID, []int) {
	m := c.NewMarks()
	h := make(celfHeap, 0, len(candidates))
	for _, u := range candidates {
		h = append(h, celfEntry{node: u, gain: c.CountContaining(u), round: 0})
	}
	heap.Init(&h)
	var chosen []graph.NodeID
	var cum []int
	for len(chosen) < k && h.Len() > 0 {
		top := h[0]
		if top.round != len(chosen) {
			// Stale bound: refresh in place and restore heap order.
			h[0].gain = m.Marginal(top.node)
			h[0].round = len(chosen)
			heap.Fix(&h, 0)
			continue
		}
		if top.gain == 0 {
			// The best fresh marginal is zero; nothing can add coverage.
			break
		}
		m.Cover(top.node)
		chosen = append(chosen, top.node)
		cum = append(cum, m.Count())
		heap.Pop(&h)
	}
	return chosen, cum
}
