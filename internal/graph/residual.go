package graph

import (
	"fmt"
	"slices"
)

// Residual is a view of a Graph with a subset of nodes removed — the
// paper's residual graph G_i obtained by deleting every node activated by
// earlier seeds. It is a mask over the immutable CSR arrays: removal is
// O(1), membership checks are O(1), and no adjacency is copied.
//
// One array holds every node: order[:alive] is the alive list, kept
// incrementally (swap-remove on Remove) so uniform root sampling reads it
// in O(1) via AliveList instead of rebuilding an O(N) slice per residual
// version; order[alive:] is the removal log, most recent removal first.
// Remove swaps the removed node into the slot the shrinking alive list
// vacates, so the log costs no extra memory and no allocation. The log
// only grows: its length is the version, and RemovedSince(v) its head.
// The alive-list order is a deterministic function of the removals, so
// replaying the log (Removed, oldest first) through Remove on a
// NewResidual of the same graph reproduces the view exactly, order and
// version included — the checkpoint codec stores the log, not the O(N)
// alive list.
//
// A Residual is not safe for concurrent mutation; concurrent readers are
// fine between mutations. Clone produces an independent view sharing the
// underlying Graph.
type Residual struct {
	g *Graph
	// order[:alive] holds the alive node IDs, order[alive:] the removed
	// ones (most recent first); pos[u] is u's index in order while u is
	// alive, or -1 once it has been removed.
	order []NodeID
	alive int
	pos   []int32
}

// NewResidual returns a residual view of g with all nodes alive.
func NewResidual(g *Graph) *Residual {
	r := &Residual{
		g:     g,
		order: make([]NodeID, g.N()),
		pos:   make([]int32, g.N()),
	}
	r.alive = len(r.order)
	for u := range r.order {
		r.order[u] = NodeID(u)
		r.pos[u] = int32(u)
	}
	return r
}

// Graph returns the underlying immutable graph.
func (r *Residual) Graph() *Graph { return r.g }

// SetGraph re-homes the view onto h, a graph over the same node set —
// typically an ApplyDelta descendant of the current graph — keeping the
// alive list, its order, the removal log and the version counter. It
// panics if h's node count differs.
func (r *Residual) SetGraph(h *Graph) {
	if h.N() != r.g.N() {
		panic(fmt.Sprintf("graph: residual of a %d-node graph re-homed onto a %d-node graph", r.g.N(), h.N()))
	}
	r.g = h
}

// N returns the number of alive nodes (the paper's n_i).
func (r *Residual) N() int { return r.alive }

// FullN returns the node count of the underlying graph.
func (r *Residual) FullN() int { return r.g.N() }

// Version returns the number of nodes removed so far, the length of the
// removal log; caches keyed on it detect staleness.
func (r *Residual) Version() int64 { return int64(len(r.order) - r.alive) }

// Alive reports whether node u is still present.
func (r *Residual) Alive(u NodeID) bool { return r.pos[u] >= 0 }

// Remove deletes node u from the view in O(1): the last alive node moves
// into u's slot and u takes the vacated one, at the head of the removal
// log. Removing an already-removed node is a no-op. Returns true if the
// node was alive.
func (r *Residual) Remove(u NodeID) bool {
	i := r.pos[u]
	if i < 0 {
		return false
	}
	r.alive--
	moved := r.order[r.alive]
	r.order[i] = moved
	r.pos[moved] = i
	r.order[r.alive] = u
	r.pos[u] = -1
	return true
}

// AliveList returns the alive node IDs without allocating. The slice
// aliases internal storage, must not be modified, and is only valid until
// the next mutation; its order is a deterministic function of the removal
// history (not sorted). Samplers draw uniform roots from it directly.
func (r *Residual) AliveList() []NodeID { return r.order[:r.alive:r.alive] }

// Removed returns the removal log, most recent removal first, without
// allocating. Like AliveList it aliases internal storage, must not be
// modified, and is only valid until the next mutation. Removing its nodes
// in reverse order from a NewResidual of the same graph reproduces this
// view's alive list, order included.
func (r *Residual) Removed() []NodeID { return r.order[r.alive:] }

// RemovedSince returns the nodes removed after the view was at version v,
// most recent first: the head of the removal log, Removed()[:Version()-v].
// v = -1 stands for an unknown version and returns the whole log, which
// is exactly the set of dead nodes; a v above Version panics. The slice
// aliases internal storage like Removed.
func (r *Residual) RemovedSince(v int64) []NodeID {
	if v < 0 {
		return r.Removed()
	}
	return r.Removed()[:r.Version()-v]
}

// AliveNodes returns a copy of the alive node IDs in increasing order.
// Allocates; hot paths should use AliveList.
func (r *Residual) AliveNodes() []NodeID {
	out := make([]NodeID, 0, r.alive)
	for u := 0; u < len(r.pos); u++ {
		if r.pos[u] >= 0 {
			out = append(out, NodeID(u))
		}
	}
	return out
}

// M returns the number of directed edges with both endpoints alive (the
// paper's m_i). O(M); used by complexity accounting, not hot paths.
func (r *Residual) M() int64 {
	var m int64
	for u := int32(0); u < int32(r.g.N()); u++ {
		if r.pos[u] < 0 {
			continue
		}
		for _, v := range r.g.OutTargets(u) {
			if r.pos[v] >= 0 {
				m++
			}
		}
	}
	return m
}

// Clone returns an independent copy of the view over the same Graph,
// including the alive-list order and the removal log, so sampling after a
// clone matches sampling after the original's history.
func (r *Residual) Clone() *Residual {
	return &Residual{
		g:     r.g,
		order: slices.Clone(r.order),
		alive: r.alive,
		pos:   slices.Clone(r.pos),
	}
}
