package ris

import (
	"math/bits"
	"slices"

	"repro/internal/graph"
)

// Collection stores RR sets in a CSR/arena layout: the nodes of every RR
// set live in one flat arena, with per-set offsets, so a collection is a
// handful of contiguous allocations regardless of how many sets it holds.
// Compared to a boxed set-per-allocation layout this cuts per-set and
// per-node allocations to O(1) amortized and keeps the data
// cache-contiguous, which is what lets livejournal-scale θ fit in memory.
//
// Layout:
//
//	set in slot s:            arena[offsets[s]:offsets[s+1]], root roots[s]
//	sets holding node u:      the entries equal to u on u's bucket chain
//
// One node-to-set index answers every "which sets hold u" question — the
// drop pass, Marks, Cov and the CELF greedy: chains of arena entries
// hashed by node into about half as many buckets as entries (see index),
// built on first use and extended over the sets appended since. Set ids
// are slots.
//
// A Collection additionally supports cross-round reuse: Filter drops the
// RR sets no longer valid on a mutated residual, and Batcher.GrowTo
// appends a top-up into the existing collection instead of rebuilding
// from scratch. Filter reads the nodes removed since the collection's
// version off the residual's removal log, so that version must come from
// the history of the residual filtered against: the same view or a Clone
// of it.
//
// A dropped set is a tombstone: its slot keeps its place, marked by a
// deadRoot root, and Len counts only the live sets; its entries are
// complemented, so chain walks skip it. compact moves the live sets down
// in order once the dropped entries (or sets) reach the live ones, so the
// arena and the index hold at most twice the live entries and slots
// change only there.
//
// A Collection is not safe for concurrent use: queries extend the index.
type Collection struct {
	n int // node-ID space (full graph size; residuals keep original IDs)

	arena   []graph.NodeID
	offsets []int32
	roots   []graph.NodeID // deadRoot marks a dropped set until compact

	// version is the graph.Residual.Version the held sets were drawn on
	// (or last filtered against); -1 when unknown.
	version int64

	// coverage is the attached incremental containment tracker, if any;
	// a drop uncounts its sets, compact renumbers its counted prefix and
	// Reset zeroes it (see tracker.go).
	coverage *Coverage

	// deadSets and deadEntries count the tombstones and their arena
	// entries.
	deadSets, deadEntries int

	// The node-to-set index: the arena entries holding node u are chained
	// from head[u & (len(head)-1)] through post (post[p] links entry p to
	// the previous entry in the same bucket), newest first, each link an
	// arena position plus one, 0 ending the chain; setAt[k] is the set
	// holding entry k·setAtStride. Sets [0, indexed) are indexed. Built by
	// the first query or drop after a compact or Reset (indexed == 0).
	head    []int32
	post    []int32
	setAt   []int32
	indexed int

	// shared, while non-nil, is the Base snapshot whose first sharedSets
	// sets are this collection's sets [0, sharedSets), copied from it; its
	// index (built when the base published it) can stand in for theirs
	// until a compaction moves them.
	shared     *Collection
	sharedSets int

	sel selectScratch // GreedyMaxCoverage's buffers, reused across calls
}

// setAtStride is the spacing of the index's entry-to-set samples: a
// chained entry finds its set by a forward scan over at most a stride's
// worth of offsets instead of a binary search over all of them.
const setAtStride = 16

// maxBucketLoad is the mean number of arena entries per head bucket past
// which the next index update rebuilds the index with more buckets.
const maxBucketLoad = 8

// headBuckets returns the number of head buckets for an index over
// entries arena entries on n nodes: a power of two of about half the
// entries, so chains stay short while the heads stay small next to the
// arena, but never more than one per node, where every node has its own
// chain.
func headBuckets(entries, n int) int {
	return 1 << bits.Len(uint(max(1, min(n, entries/2))-1))
}

// deadRoot is the root of a dropped set's slot. A dropped set's entries
// are complemented (^u < 0), so a chain walk skips them without finding
// their set.
const deadRoot graph.NodeID = -1

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
}

// growArena ensures the arena can hold need entries without reallocating,
// clamping the capacity to maxArena. Bulk draws and copies ask for
// exactly what they add, so the arena is sized by what it holds. An empty
// arena starts at need; capacity then doubles until it covers need, so
// after a batch it depends only on the first and the largest need — the
// set that started the arena and the total it holds — not on how the
// batch was split across pool workers (see samplerPool.appendChunks),
// which keeps Bytes worker-count independent. Growth never compacts
// dropped sets away: when a collection compacts depends on its contents
// only, not on the capacity it inherited, so a warm collection (Reset,
// then reused) repeats a cold one's layout and allocates nothing the cold
// one did not.
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
}

// appendRange appends copies of src's sets [from, to) to c (a pool
// worker's output, a first look's prefix), growing the arena through
// growArena by what they add and offsets and roots one entry at a time.
// src holds no dropped sets.
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

// entries returns the nodes of the sets in slots [from, to), as one view
// into the arena; a dropped set's entries in it are complemented.
func (c *Collection) entries(from, to int) []graph.NodeID {
	return c.arena[c.offsets[from]:c.offsets[to]]
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
	c.version = -1
	c.deadSets, c.deadEntries, c.indexed, c.shared = 0, 0, 0, nil
	if c.coverage != nil {
		c.coverage.reset()
	}
}

// Len returns the number of live RR sets held (the paper's θ as far as
// estimates are concerned); dropped sets awaiting compaction are not
// counted.
func (c *Collection) Len() int { return len(c.roots) - c.deadSets }

// noteVersion records the residual version the sets are being drawn on.
func (c *Collection) noteVersion(v int64) { c.version = v }

// Version returns the residual version the collection's sets are valid
// for (-1 when the collection was built without a residual).
func (c *Collection) Version() int64 { return c.version }

// Bytes returns the heap footprint of the collection's backing arrays
// (arena, offsets, roots, and the node-to-set index once a query or a
// drop has built it). Deterministic for a deterministic build, unlike
// process-level memory stats, so it can be reported in reproducible
// experiment rows.
func (c *Collection) Bytes() int64 {
	b := int64(cap(c.arena))*4 + int64(cap(c.offsets))*4 + int64(cap(c.roots))*4
	b += int64(cap(c.head))*4 + int64(cap(c.post))*4 + int64(cap(c.setAt))*4
	return b
}

// eachHolding calls f with the slot of every live set holding u, newest
// first, after bringing the index up to date. It walks u's bucket chain:
// an entry of another node, or of a dropped set (complemented), is
// skipped, and an entry of u finds its set through setAt. f may drop the
// set it is given but must not otherwise change the collection.
func (c *Collection) eachHolding(u graph.NodeID, f func(s int32)) {
	c.index()
	head, post, arena, offsets, setAt := c.head, c.post, c.arena, c.offsets, c.setAt
	for q := head[u&int32(len(head)-1)]; q > 0; q = post[q-1] {
		if arena[q-1] != u {
			continue
		}
		s := setAt[(q-1)/setAtStride]
		for offsets[s+1] < q {
			s++
		}
		f(s)
	}
}

// Filter drops the RR sets no longer valid on res, keeping exactly those
// whose nodes (root included) are all alive, in order.
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
// node). It returns the number of surviving sets. Dropped sets become
// tombstones, found through the node-to-set index (see dropContaining);
// slots change only when a later compaction moves the survivors down, but
// any Marks over the collection must be discarded all the same.
func (c *Collection) Filter(res *graph.Residual) int {
	if c.version == res.Version() {
		return c.Len()
	}
	kept := c.dropContaining(res.RemovedSince(c.version))
	c.version = res.Version()
	return kept
}

// InvalidateTouching drops the RR sets that contain any of the touched
// nodes — the generalized invalidation contract for topology deltas.
// Reverse sampling examines edge (u,v) only when it visits v, so a set
// avoiding every delta target endpoint (graph.DeltaResult.Touched) read
// no changed edge. Conditioned on its root, a survivor is therefore a
// new-topology RR set conditioned on avoiding the touched nodes — not an
// unconditioned one. Sets containing a touched node are dropped and the
// shortfall is topped up through the usual Batcher.GrowTo with
// unconditioned draws, so the pool under-represents sets through touched
// nodes: if a fraction q of the pool is dropped and a fresh draw meets a
// touched node with probability q', the pool ends with a share q·q' of
// such sets instead of q'. The root mix tilts as under Filter. Both
// deviations scale with the dropped fraction.
//
// Unlike Filter, the collection's residual version is left alone: the
// survivors remain valid for the current residual, so a later Sync/Filter
// at the same version is the expected no-op. It runs Filter's drop pass
// over the touched nodes, which allocates nothing once the collection's
// index is built. Slots change only at compaction, but any Marks
// over the collection must be discarded; an attached Coverage gives the
// dropped sets' counts back in the same pass. Returns the number of
// surviving sets.
func (c *Collection) InvalidateTouching(touched []graph.NodeID) int {
	if len(touched) == 0 || c.Len() == 0 {
		return c.Len()
	}
	return c.dropContaining(touched)
}

// dropContaining is the drop pass behind Filter and InvalidateTouching:
// it turns every live set holding one of nodes into a tombstone and
// returns the live count. The sets are found through the node-to-set
// index (eachHolding), so a pass costs O(chains of nodes + entries of the
// dropped sets), not O(arena); a chain holds about two entries of other
// nodes per bucket besides the node's own. A dropped set's entries are
// complemented, so later walks skip them. A dropped set the attached
// Coverage has counted gives its counts back; live sets keep their slots,
// so the counted prefix stays a prefix. Once the dropped entries or sets
// reach the live ones, the pass compacts and rebuilds the index over the
// survivors, so the next query or drop finds it current.
func (c *Collection) dropContaining(nodes []graph.NodeID) int {
	if len(nodes) == 0 || c.Len() == 0 {
		return c.Len()
	}
	cov, counted := c.coverage, int32(0)
	if cov != nil {
		counted = int32(cov.seen)
	}
	drop := func(s int32) {
		c.roots[s] = deadRoot
		set := c.arena[c.offsets[s]:c.offsets[s+1]]
		if s < counted {
			cov.t.add(cov.counts, set, -1)
		}
		for i, v := range set {
			set[i] = ^v
		}
		c.deadSets++
		c.deadEntries += len(set)
	}
	for _, u := range nodes {
		c.eachHolding(u, drop)
	}
	if c.deadSets > 0 && (2*c.deadEntries >= len(c.arena) || 2*c.deadSets >= len(c.roots)) {
		c.compact()
		c.index()
	}
	return c.Len()
}

// index chains the sets appended since it last ran into the node-to-set
// index. After a compact or Reset (indexed == 0), or once the
// arena has outgrown the head buckets, it rebuilds the index: the heads
// are sized by headBuckets and cleared, and the whole arena is chained in
// one pass, dropped sets left out. A collection whose first sets were
// copied from a Base, and are most of its entries and of the base's,
// starts instead from the base's index, cut at the end of the copies, and
// chains only the sets after them.
func (c *Collection) index() {
	if c.indexed > 0 && c.indexed == len(c.roots) {
		return // current: the last call left the heads sized for this arena
	}
	head, arena, offsets := c.head, c.arena, c.offsets
	size := headBuckets(len(arena), c.n)
	if c.indexed > 0 && len(arena) > maxBucketLoad*len(head) && size > len(head) {
		c.indexed, c.shared = 0, nil
	}
	if c.indexed == 0 {
		sh := c.shared
		if sh != nil {
			// Cutting the base's heads walks its entries past the copies,
			// so it pays only when the copies are most of both collections.
			if end := int(offsets[c.sharedSets]); 2*end < len(arena) || 2*end <= len(sh.arena) {
				sh = nil
			}
		}
		if sh != nil {
			size = len(sh.head)
		}
		if cap(head) < size {
			head = make([]int32, size)
		} else {
			head = head[:size]
			clear(head)
		}
		if sh != nil {
			end := offsets[c.sharedSets]
			for b, q := range sh.head {
				for q > end {
					q = sh.post[q-1]
				}
				head[b] = q
			}
			c.post = append(c.post[:0], sh.post[:end]...)
			c.setAt = append(c.setAt[:0], sh.setAt[:(int(end)+setAtStride-1)/setAtStride]...)
			c.indexed = c.sharedSets
		}
		c.head = head
	}
	mask := int32(len(head) - 1)
	from := int(offsets[c.indexed])
	post := slices.Grow(c.post[:from], len(arena)-from)[:len(arena)]
	for p := from; p < len(arena); p++ {
		if u := arena[p]; u >= 0 { // a growth rebuild skips the dropped sets
			post[p] = head[u&mask]
			head[u&mask] = int32(p) + 1
		}
	}
	setAt := c.setAt[:(from+setAtStride-1)/setAtStride]
	for s := c.indexed; s < len(c.roots); s++ {
		for int32(len(setAt)*setAtStride) < offsets[s+1] {
			setAt = append(setAt, int32(s))
		}
	}
	c.post, c.setAt, c.indexed = post, setAt, len(c.roots)
}

// compact moves the live sets down over the tombstones, in order, and
// empties the index, which the next query or drop rebuilds. An attached
// Coverage's counted prefix shrinks to the live sets it held.
func (c *Collection) compact() {
	counted := 0
	if c.coverage != nil {
		counted = c.coverage.seen
	}
	w, end, seen := 0, int32(0), 0
	for s, root := range c.roots {
		if root == deadRoot {
			continue
		}
		// Earlier slots wrote offsets[1..w] with w ≤ s, so offsets[s+1] is
		// intact, and offsets[s] was rewritten only if no slot before s was
		// dropped, with its own value.
		lo, hi := c.offsets[s], c.offsets[s+1]
		end += int32(copy(c.arena[end:], c.arena[lo:hi]))
		c.roots[w] = root
		c.offsets[w+1] = end
		w++
		if s < counted {
			seen++
		}
	}
	c.roots, c.offsets, c.arena = c.roots[:w], c.offsets[:w+1], c.arena[:end]
	c.deadSets, c.deadEntries, c.indexed, c.shared = 0, 0, 0, nil
	if c.coverage != nil {
		c.coverage.seen = seen
	}
}
