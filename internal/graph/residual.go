package graph

import "fmt"

// Residual is a view of a Graph with a subset of nodes removed — the
// paper's residual graph G_i obtained by deleting every node activated by
// earlier seeds. It is a mask over the immutable CSR arrays: removal is
// O(1), membership checks are O(1), and no adjacency is copied.
//
// The alive-node list is maintained incrementally (swap-remove on Remove,
// rebuilt only on Reset), so uniform root sampling reads it in O(1) via
// AliveList instead of rebuilding an O(N) slice per residual version.
//
// A Residual is not safe for concurrent mutation; concurrent readers are
// fine between mutations. Clone produces an independent view sharing the
// underlying Graph.
type Residual struct {
	g *Graph
	// aliveList holds the alive node IDs in an order determined by the
	// removal history (swap-remove); pos[u] is u's index in aliveList, or
	// -1 when u has been removed.
	aliveList []NodeID
	pos       []int32
	version   int64 // bumped on every mutation; lets caches detect staleness
}

// NewResidual returns a residual view of g with all nodes alive.
func NewResidual(g *Graph) *Residual {
	r := &Residual{
		g:         g,
		aliveList: make([]NodeID, g.N()),
		pos:       make([]int32, g.N()),
	}
	r.fillAlive()
	return r
}

// fillAlive resets the alive bookkeeping to "all nodes alive, increasing
// ORIGINAL-ID order". On identity-numbered graphs that is 0..n-1; on a
// degree-renumbered graph slot i holds the internal ID of original node
// i, so uniform root draws (alive[Intn(n)]) land on the same original
// node under either numbering — the root-sampling half of the
// renumbering invariance contract.
func (r *Residual) fillAlive() {
	r.aliveList = r.aliveList[:r.g.N()]
	for u := range r.aliveList {
		v := r.g.InternalID(NodeID(u))
		r.aliveList[u] = v
		r.pos[v] = int32(u)
	}
}

// Graph returns the underlying immutable graph.
func (r *Residual) Graph() *Graph { return r.g }

// N returns the number of alive nodes (the paper's n_i).
func (r *Residual) N() int { return len(r.aliveList) }

// FullN returns the node count of the underlying graph.
func (r *Residual) FullN() int { return r.g.N() }

// Version returns a counter that changes whenever the alive set changes.
func (r *Residual) Version() int64 { return r.version }

// Alive reports whether node u is still present.
func (r *Residual) Alive(u NodeID) bool { return r.pos[u] >= 0 }

// Remove deletes node u from the view in O(1) (swap-remove on the alive
// list). Removing an already-removed node is a no-op. Returns true if the
// node was alive.
func (r *Residual) Remove(u NodeID) bool {
	i := r.pos[u]
	if i < 0 {
		return false
	}
	last := len(r.aliveList) - 1
	moved := r.aliveList[last]
	r.aliveList[i] = moved
	r.pos[moved] = i
	r.aliveList = r.aliveList[:last]
	r.pos[u] = -1
	r.version++
	return true
}

// RemoveAll deletes every node in us.
func (r *Residual) RemoveAll(us []NodeID) {
	for _, u := range us {
		r.Remove(u)
	}
}

// AliveList returns the alive node IDs without allocating. The slice
// aliases internal storage, must not be modified, and is only valid until
// the next mutation; its order is a deterministic function of the removal
// history (not sorted). Samplers draw uniform roots from it directly.
func (r *Residual) AliveList() []NodeID { return r.aliveList }

// AliveNodes returns a copy of the alive node IDs in increasing order.
// Allocates; hot paths should use AliveList.
func (r *Residual) AliveNodes() []NodeID {
	out := make([]NodeID, 0, len(r.aliveList))
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
		adj, _ := r.g.OutNeighbors(u)
		for _, v := range adj {
			if r.pos[v] >= 0 {
				m++
			}
		}
	}
	return m
}

// Clone returns an independent copy of the view over the same Graph,
// including the alive-list order, so sampling after a clone matches
// sampling after the original's history.
func (r *Residual) Clone() *Residual { return r.CloneOnto(r.g) }

// CloneOnto is Clone re-homed onto h, a graph over the same node set —
// typically an ApplyDelta descendant of r's graph: the copy keeps r's
// alive list, its order and the version counter. It panics if h's node
// count differs from r's graph's.
func (r *Residual) CloneOnto(h *Graph) *Residual {
	if h.N() != r.g.N() {
		panic(fmt.Sprintf("graph: residual of a %d-node graph cloned onto a %d-node graph", r.g.N(), h.N()))
	}
	cp := &Residual{
		g:         h,
		aliveList: make([]NodeID, len(r.aliveList), h.N()),
		pos:       make([]int32, len(r.pos)),
		version:   r.version,
	}
	copy(cp.aliveList, r.aliveList)
	copy(cp.pos, r.pos)
	return cp
}

// RestoreAlive rewrites the view to exactly the given alive list — in the
// given order — and version counter, discarding the current state. It is
// the checkpoint-restore counterpart of AliveList: the list order is a
// deterministic function of the removal history and feeds uniform root
// sampling, so restoring it verbatim makes post-restore sampling
// bit-identical to the uninterrupted run. The input slice is copied.
func (r *Residual) RestoreAlive(alive []NodeID, version int64) error {
	n := NodeID(r.g.N())
	if len(alive) > int(n) {
		return fmt.Errorf("graph: restore with %d alive nodes on a %d-node graph", len(alive), n)
	}
	for i := range r.pos {
		r.pos[i] = -1
	}
	r.aliveList = r.aliveList[:0]
	for i, u := range alive {
		if u < 0 || u >= n {
			return fmt.Errorf("graph: restore alive node %d outside [0,%d)", u, n)
		}
		if r.pos[u] >= 0 {
			return fmt.Errorf("graph: restore alive list repeats node %d", u)
		}
		r.pos[u] = int32(i)
		r.aliveList = append(r.aliveList, u)
	}
	r.version = version
	return nil
}

// Reset restores all nodes to alive (and the alive list to increasing
// order).
func (r *Residual) Reset() {
	r.fillAlive()
	r.version++
}

// Materialize builds a standalone Graph containing only alive nodes, with
// nodes renumbered densely. It returns the new graph plus old->new and
// new->old ID mappings. Used by tests and by the exact oracle, where
// enumeration cost depends on the materialized size.
func (r *Residual) Materialize() (*Graph, map[NodeID]NodeID, []NodeID) {
	oldToNew := make(map[NodeID]NodeID, len(r.aliveList))
	newToOld := make([]NodeID, 0, len(r.aliveList))
	for u := int32(0); u < int32(r.g.N()); u++ {
		if r.pos[u] >= 0 {
			oldToNew[u] = NodeID(len(newToOld))
			newToOld = append(newToOld, u)
		}
	}
	b := NewBuilder(len(r.aliveList), r.g.Directed())
	for _, oldU := range newToOld {
		adj, ps := r.g.OutNeighbors(oldU)
		for i, oldV := range adj {
			if newV, ok := oldToNew[oldV]; ok {
				// Endpoints alive by construction; errors impossible here.
				_ = b.AddEdge(oldToNew[oldU], newV, ps[i])
			}
		}
	}
	return b.Build(), oldToNew, newToOld
}
