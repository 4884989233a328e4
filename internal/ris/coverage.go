package ris

import (
	"repro/internal/graph"
)

// This file implements the coverage queries of the paper over a
// Collection: CovR(S) and marginal coverage CovR(u|S). Greedy
// max-coverage selection (CELF) is in select.go.

// Cov returns CovR(S): the number of RR sets intersecting S. It builds a
// fresh mark state per call; loops over many sets should use Marks.
func (c *Collection) Cov(s []graph.NodeID) int {
	m := c.NewMarks()
	m.CoverAll(s)
	return m.Count()
}

// Marks is a reusable coverage bitmap over a collection's slots for
// incremental queries: mark the RR sets covered by a base set once, then
// ask marginal coverages of many candidate nodes, each a walk of the
// node's chain in the node-to-set index (Collection.eachHolding), which
// skips dropped sets. Reset is O(1) via generation stamps, so one Marks
// serves many queries without reallocation. A Marks is invalidated by a
// drop (Collection.Filter or InvalidateTouching): its count still
// includes the dropped sets, and a compaction renumbers the slots. Create
// a fresh one afterwards.
type Marks struct {
	c     *Collection
	stamp []uint32 // stamp[s] == gen means the set in slot s is covered
	gen   uint32
	count int
}

// NewMarks creates an empty mark state over c.
func (c *Collection) NewMarks() *Marks {
	return &Marks{c: c, stamp: make([]uint32, len(c.roots)), gen: 1}
}

// Reset clears the mark state in O(1) (amortized; it grows the stamp array
// if RR sets were added since creation and re-zeroes on generation wrap).
func (m *Marks) Reset() {
	if len(m.stamp) < len(m.c.roots) {
		grown := make([]uint32, len(m.c.roots))
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
	m.c.eachHolding(u, func(s int32) {
		if m.stamp[s] != m.gen {
			m.stamp[s] = m.gen
			gained++
		}
	})
	m.count += gained
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
	m.c.eachHolding(u, func(s int32) {
		if m.stamp[s] != m.gen {
			gained++
		}
	})
	return gained
}

// EstimateSpread converts a coverage count into a spread estimate on a
// graph (or residual) with nAlive nodes: nAlive * cov / θ.
func EstimateSpread(cov, theta, nAlive int) float64 {
	if theta == 0 {
		return 0
	}
	return float64(nAlive) * float64(cov) / float64(theta)
}
