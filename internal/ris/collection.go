package ris

import (
	"repro/internal/graph"
)

// Collection stores RR sets in a CSR/arena layout: the nodes of every RR
// set live in one flat arena, with per-set offsets, so a collection is a
// handful of contiguous allocations regardless of how many sets it holds.
// The inverted index (node -> ids of the RR sets containing it) is itself
// CSR — one flat id arena plus per-node offsets — built by BuildIndex, on
// first use by a coverage query or up front by the greedy.
//
// Layout:
//
//	set i's nodes:            arena[offsets[i]:offsets[i+1]], root roots[i]
//	sets containing node u:   invArena[invOff[u]:invOff[u+1]]
//
// Compared to a boxed set-per-allocation layout this cuts per-set and
// per-node allocations to O(1) amortized and keeps the data
// cache-contiguous, which is what lets livejournal-scale θ fit in memory.
//
// A Collection additionally supports cross-round reuse: Filter compacts
// the arena in place to the RR sets still valid on a mutated residual,
// and Batcher.GrowTo appends a top-up into the existing collection
// instead of rebuilding from scratch. Filter reads
// the nodes removed since the collection's version off the residual's
// removal log, so that version must come from the history of the
// residual filtered against: the same view, a Clone of it, or its replay
// from a checkpoint's removal log.
//
// A Collection is not safe for concurrent use: queries build the inverted
// index on first use.
type Collection struct {
	n int // node-ID space (full graph size; residuals keep original IDs)

	arena   []graph.NodeID
	offsets []int32
	roots   []graph.NodeID

	invArena []int32
	invOff   []int32
	invValid bool

	// version is the graph.Residual.Version the held sets were drawn on
	// (or last filtered against); -1 when unknown.
	version int64

	// coverage is the attached incremental containment tracker, if any;
	// Filter compacts it in lockstep and Reset zeroes it (see tracker.go).
	coverage *Coverage

	// dropBits is dropContaining's n-bit node set, all zero between passes.
	dropBits []uint64
}

// NewCollection creates an empty collection over a graph with n nodes
// (full node count; residual sampling still uses original IDs).
func NewCollection(n int) *Collection {
	return &Collection{n: n, offsets: []int32{0}, version: -1}
}

// maxArena bounds the flat arena length so int32 offsets cannot wrap; at
// livejournal scale that is ~2 billion node entries (8 GiB) per
// collection, beyond which the overflow must be loud, not silent.
const maxArena = 1<<31 - 1

// AddSet appends an RR set given as (root, nodes); nodes are copied into
// the arena.
func (c *Collection) AddSet(root graph.NodeID, nodes []graph.NodeID) {
	if len(c.arena)+len(nodes) > maxArena {
		panic("ris: collection arena exceeds int32 offset range; shard the collection")
	}
	c.arena = append(c.arena, nodes...)
	c.offsets = append(c.offsets, int32(len(c.arena)))
	c.roots = append(c.roots, root)
	c.invValid = false
}

// growArena ensures the arena can hold need entries without reallocating,
// clamping the capacity to maxArena. Bulk draws and copies ask for
// exactly what they add, so the arena is sized by what it holds. An empty
// arena starts at need; capacity then doubles until it covers need, so
// after a batch it depends only on the first and the largest need — the
// set that started the arena and the total it holds — not on how the
// batch was split across pool workers (see samplerPool.appendChunks),
// which keeps Bytes worker-count independent.
func (c *Collection) growArena(need int) {
	if cap(c.arena) >= need || need > maxArena {
		return
	}
	newCap := cap(c.arena)
	if newCap == 0 {
		newCap = need
	}
	for newCap < need {
		newCap *= 2
	}
	bigger := make([]graph.NodeID, len(c.arena), min(newCap, maxArena))
	copy(bigger, c.arena)
	c.arena = bigger
}

// commitSet finalizes a set of n nodes built in place in the arena tail
// (arena[len(arena):len(arena)+n] already holds them). It enforces the
// same maxArena bound as AddSet: raw appends elsewhere can leave the
// arena with capacity beyond maxArena, so an in-place build near the
// boundary must still fail loudly rather than wrap the int32 offsets.
func (c *Collection) commitSet(root graph.NodeID, n int) {
	if len(c.arena)+n > maxArena {
		panic("ris: collection arena exceeds int32 offset range; shard the collection")
	}
	c.arena = c.arena[:len(c.arena)+n]
	c.offsets = append(c.offsets, int32(len(c.arena)))
	c.roots = append(c.roots, root)
	c.invValid = false
}

// appendRange appends copies of src's sets [from, to) to c (a pool
// worker's output, a first look's prefix), growing the arena through
// growArena by what they add and offsets and roots one entry at a time.
func (c *Collection) appendRange(src *Collection, from, to int) {
	if from >= to {
		return
	}
	lo, hi := src.offsets[from], src.offsets[to]
	if len(c.arena)+int(hi-lo) > maxArena {
		panic("ris: collection arena exceeds int32 offset range; shard the collection")
	}
	c.growArena(len(c.arena) + int(hi-lo))
	shift := int32(len(c.arena)) - lo
	c.arena = append(c.arena, src.arena[lo:hi]...)
	for i := from; i < to; i++ {
		c.offsets = append(c.offsets, src.offsets[i+1]+shift)
		c.roots = append(c.roots, src.roots[i])
	}
	c.invValid = false
}

// extended returns a new collection holding c's sets followed by src's in
// exactly sized arrays, leaving c and src unchanged.
func (c *Collection) extended(src *Collection) *Collection {
	out := &Collection{
		n:       c.n,
		arena:   make([]graph.NodeID, 0, len(c.arena)+len(src.arena)),
		offsets: make([]int32, 0, len(c.offsets)+src.Len()),
		roots:   make([]graph.NodeID, 0, c.Len()+src.Len()),
		version: c.version,
	}
	out.offsets = append(out.offsets, 0)
	out.appendRange(c, 0, c.Len())
	out.appendRange(src, 0, src.Len())
	return out
}

// Reset empties the collection in place, keeping the arena, offset, root
// and index capacity for reuse — the warm path of persistent sampler
// pools, where a fresh attempt reuses last attempt's storage instead of
// growing a new arena from zero. Any Marks over the collection must be
// discarded.
func (c *Collection) Reset() {
	c.arena = c.arena[:0]
	c.offsets = c.offsets[:1]
	c.offsets[0] = 0
	c.roots = c.roots[:0]
	c.invValid = false
	c.version = -1
	if c.coverage != nil {
		c.coverage.reset()
	}
}

// Len returns the number of RR sets actually held (the paper's θ as far as
// estimates are concerned).
func (c *Collection) Len() int { return len(c.roots) }

// Root returns the root of RR set i.
func (c *Collection) Root(i int) graph.NodeID { return c.roots[i] }

// SetNodes returns the nodes of RR set i as a view into the arena;
// read-only, invalidated by Filter.
func (c *Collection) SetNodes(i int) []graph.NodeID {
	return c.arena[c.offsets[i]:c.offsets[i+1]]
}

// noteVersion records the residual version the sets are being drawn on.
func (c *Collection) noteVersion(v int64) { c.version = v }

// Version returns the residual version the collection's sets are valid
// for (-1 when the collection was built without a residual).
func (c *Collection) Version() int64 { return c.version }

// Bytes returns the heap footprint of the collection's backing arrays
// (arena, offsets, roots, and inverted index if built). Deterministic for
// a deterministic build, unlike process-level memory stats, so it can be
// reported in reproducible experiment rows.
func (c *Collection) Bytes() int64 {
	b := int64(cap(c.arena))*4 + int64(cap(c.offsets))*4 + int64(cap(c.roots))*4
	b += int64(cap(c.invArena))*4 + int64(cap(c.invOff))*4
	return b
}

// SetsContaining returns the ids of RR sets that contain u (ascending).
func (c *Collection) SetsContaining(u graph.NodeID) []int32 {
	c.BuildIndex()
	return c.invArena[c.invOff[u]:c.invOff[u+1]]
}

// CountContaining returns |{i : u ∈ R_i}| — the single-node coverage
// CovR({u}) — without materializing the slice.
func (c *Collection) CountContaining(u graph.NodeID) int {
	c.BuildIndex()
	return int(c.invOff[u+1] - c.invOff[u])
}

// Filter compacts the collection in place to the RR sets that are still
// valid on res: exactly those whose nodes (root included) are all alive.
// Adaptive rounds keep these sets and only top up the shortfall
// (the ADG, ADDATP and HATP round loops unless NoReuse), but the
// survivors are not distributed as RR sets of the current residual, even
// conditioned on their root. A survivor is a set of the residual it was
// drawn on, conditioned on avoiding every node removed since; a fresh
// draw on the current residual never examines edges out of removed
// nodes. Under IC the survivor law is the fresh law reweighted by the
// probability that no edge from a removed node into the set fired, so
// sets holding nodes with in-edges from removed nodes are
// under-represented: with edges 1→0 and 2→1 at p = 0.5 and node 2
// removed, P[set = {0,1} | root 0] is 1/3 among survivors and 1/2 fresh
// (TestFilterTiltsSurvivorLaw). On top of that, roots whose sets tend to
// survive are over-represented versus a uniform draw from the new alive
// set. Both deviations grow with the fraction of the pool invalidated.
//
// Filter is keyed on res.Version(): if the residual has not changed since
// the sets were drawn (or last filtered), it returns immediately.
// Otherwise it drops the sets holding a node of res.RemovedSince(Version()),
// usually a handful of nodes, and never reads the alive mask: a set drawn
// at version v holds only nodes alive at v, so it is valid iff it avoids
// every node removed after v (at version -1, the whole log: every dead
// node). It returns the number of surviving sets. Set ids change on
// compaction, so any Marks over the collection must be discarded.
func (c *Collection) Filter(res *graph.Residual) int {
	if c.version == res.Version() {
		return c.Len()
	}
	kept := c.dropContaining(res.RemovedSince(c.version))
	c.version = res.Version()
	return kept
}

// InvalidateTouching compacts the collection in place to the RR sets that
// contain none of the touched nodes — the generalized invalidation
// contract for topology deltas. Reverse sampling examines edge (u,v) only
// when it visits v, so a set avoiding every delta target endpoint
// (graph.DeltaResult.Touched) read no changed edge. Conditioned on its
// root, a survivor is therefore a new-topology RR set conditioned on
// avoiding the touched nodes — not an unconditioned one. Sets containing a
// touched node are dropped and the shortfall is topped up through the
// usual Batcher.GrowTo with unconditioned draws, so the pool
// under-represents sets through touched nodes: if a fraction q of the
// pool is dropped and a fresh draw meets a touched node with probability
// q', the pool ends with a share q·q' of such sets instead of q'. The
// root mix tilts as under Filter. Both deviations scale with the dropped
// fraction.
//
// Unlike Filter, the collection's residual version is left alone: the
// survivors remain valid for the current residual, so a later Sync/Filter
// at the same version is the expected no-op. It runs Filter's drop pass
// over the touched nodes and allocates nothing once the collection has
// dropped sets before. Set ids change on compaction, so any Marks over
// the collection must be discarded; an attached Coverage is compacted in
// lockstep. Returns the number of surviving sets.
func (c *Collection) InvalidateTouching(touched []graph.NodeID) int {
	if len(touched) == 0 || c.Len() == 0 {
		return c.Len()
	}
	return c.dropContaining(touched)
}

// dropContaining is the drop pass behind Filter and InvalidateTouching:
// it compacts the collection in place, in order, to the sets holding none
// of nodes and returns the kept count. The
// nodes are set in dropBits (and cleared after), the arena is scanned
// flat against them, a hit's set is found by binary search over offsets,
// and each run of kept sets between two dropped ones moves down in one
// block. A dropped set the attached Coverage has counted gives its counts
// back; kept sets keep their order, so the counted prefix stays a prefix.
func (c *Collection) dropContaining(nodes []graph.NodeID) int {
	if len(nodes) == 0 || c.Len() == 0 {
		return c.Len()
	}
	if c.dropBits == nil {
		c.dropBits = make([]uint64, (c.n+63)/64)
	}
	bits, arena, offsets := c.dropBits, c.arena, c.offsets
	for _, u := range nodes {
		bits[uint32(u)>>6] |= 1 << (uint32(u) & 63)
	}
	counted, uncounted := 0, 0
	if c.coverage != nil {
		counted = c.coverage.seen
	}
	w, next := 0, 0 // sets [0, w) are kept and in place; [next, Len) unscanned
	for p := nextMarked(arena, 0, bits); p < len(arena); p = nextMarked(arena, int(offsets[next]), bits) {
		lo, hi := next, len(c.roots) // the hit's set: the last one starting at or before p
		for hi-lo > 1 {
			if mid := int(uint(lo+hi) >> 1); int(offsets[mid]) <= p {
				lo = mid
			} else {
				hi = mid
			}
		}
		set := arena[offsets[lo]:offsets[lo+1]]
		w = c.moveDown(next, lo, w)
		if lo < counted {
			c.coverage.uncount(set)
			uncounted++
		}
		next = lo + 1
	}
	for _, u := range nodes {
		bits[uint32(u)>>6] = 0
	}
	if next > 0 {
		w = c.moveDown(next, len(c.roots), w)
		c.roots, c.offsets, c.arena = c.roots[:w], offsets[:w+1], arena[:offsets[w]]
		c.invValid = false
		if c.coverage != nil {
			c.coverage.seen -= uncounted
		}
	}
	return c.Len()
}

// nextMarked returns the first position at or after p whose node is set
// in bits, or len(arena).
func nextMarked(arena []graph.NodeID, p int, bits []uint64) int {
	for ; p < len(arena); p++ {
		if u := uint32(arena[p]); bits[u>>6]>>(u&63)&1 != 0 {
			return p
		}
	}
	return p
}

// moveDown moves the kept sets [from, to) down to slot w, where the kept
// arena ends at offsets[w], and returns the new kept count.
func (c *Collection) moveDown(from, to, w int) int {
	if from != w && from < to {
		src, dst := c.offsets[from], c.offsets[w]
		copy(c.arena[dst:], c.arena[src:c.offsets[to]])
		copy(c.roots[w:], c.roots[from:to])
		shift := src - dst
		for k := from + 1; k <= to; k++ {
			c.offsets[w+k-from] = c.offsets[k] - shift
		}
	}
	return w + to - from
}
