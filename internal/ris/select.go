package ris

import (
	"container/heap"
	"runtime"
	"sort"
	"sync"

	"repro/internal/graph"
)

// This file holds the CSR inverted-index build and greedy max-coverage
// selection (heap-based CELF), one implementation each for every worker
// count. With workers > 1 the work that dominates IMM's selection over all
// n candidates of a large graph is sharded:
//
//   - the inverted index is built with a range-partitioned counting sort
//     (per-range per-node counts combined into exact write bases, so the
//     filled index is the same for any number of ranges),
//   - the initial per-candidate gains are evaluated concurrently (each is
//     an O(1) index lookup once the index exists),
//   - stale heap entries are popped in batches and their marginals
//     recounted concurrently, then sifted back.
//
// Selections are identical for every worker count: a node is picked only
// when its freshly evaluated gain tops every other entry's (stale ⇒
// upper-bound) key, so the pick is the (gain, smaller-ID) argmax of the
// true marginals regardless of how many entries a batch refreshed.
// TestGreedyMaxCoverageMatchesPlainGreedy enforces this.

// With workers > 1, refresh batches grow geometrically from
// initialRefreshBatch to maxRefreshBatch while the heap top stays stale,
// and reset on every pick. CELF's laziness is the whole point — after a
// pick most entries are stale but only a few ever need re-evaluation — so
// a fixed large batch would recount hundreds of marginals that
// one-at-a-time refreshes never touch; doubling bounds the wasted
// refreshes at ~2× the needed ones while still offering whole batches to
// the workers when a round really does re-evaluate many candidates.
const (
	initialRefreshBatch = 8
	maxRefreshBatch     = 1024
)

// minParallelIndexSets is the collection size below which the index build
// uses a single range (fan-out costs more than the counting passes save).
const minParallelIndexSets = 4096

// minParallelRefresh is the refresh-batch size below which re-evaluation
// runs inline: most CELF rounds refresh a handful of entries, and
// spawning workers for those costs more than the recounts.
const minParallelRefresh = 64

// parallelFor runs fn over [0, n) split into up to workers contiguous
// chunks and waits for completion. workers <= 1 runs inline.
func parallelFor(n, workers int, fn func(lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// BuildIndex materializes the CSR inverted index as a counting sort over
// up to workers contiguous ranges of sets (0 = GOMAXPROCS), or returns
// immediately if it is already valid. Per-node set ids come out ascending
// and the layout does not depend on the range count. Queries
// (SetsContaining, CountContaining) build it with one range on first use;
// callers that will read the index concurrently (the greedy's parallel
// refreshes) build it first, after which all index reads are lock-free.
func (c *Collection) BuildIndex(workers int) {
	if c.invValid {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if c.Len() < minParallelIndexSets {
		workers = 1
	}

	// Partition sets into contiguous ranges of roughly equal arena share
	// (set count alone would unbalance workers on skewed set sizes).
	bounds := make([]int, workers+1)
	for w := 1; w < workers; w++ {
		target := int32(int64(len(c.arena)) * int64(w) / int64(workers))
		bounds[w] = sort.Search(c.Len(), func(i int) bool { return c.offsets[i] >= target })
	}
	bounds[workers] = c.Len()

	// Per-range per-node counts; the arrays are retained on the collection
	// so steady-state rebuilds (one per Filter or top-up) allocate no
	// O(n) storage. When the attached Coverage has counted every set, its
	// totals minus the other ranges' counts give the last range's counts,
	// so that range skips its counting pass: one range counts nothing.
	counted := workers
	if cov := c.coverage; cov != nil && cov.seen == c.Len() {
		counted--
	}
	for len(c.rangeCounts) < workers {
		c.rangeCounts = append(c.rangeCounts, nil)
	}
	for w := range workers {
		if cap(c.rangeCounts[w]) < c.n {
			c.rangeCounts[w] = make([]int32, c.n)
		}
		c.rangeCounts[w] = c.rangeCounts[w][:c.n]
	}
	parallelFor(counted, counted, func(lo, hi int) {
		for w := lo; w < hi; w++ {
			counts := c.rangeCounts[w]
			clear(counts)
			for _, u := range c.arena[c.offsets[bounds[w]]:c.offsets[bounds[w+1]]] {
				counts[u]++
			}
		}
	})

	if cap(c.invOff) < c.n+1 {
		c.invOff = make([]int32, c.n+1)
	} else {
		c.invOff = c.invOff[:c.n+1]
	}
	// Combine: one node-major pass turns the per-range counts into exact
	// per-range write bases and the prefix-summed invOff. Range w's slots
	// for node u precede range w+1's, and each range fills its slots in set
	// order, so per-node ids come out ascending.
	off := int32(0)
	for u := 0; u < c.n; u++ {
		c.invOff[u] = off
		for w := 0; w < counted; w++ {
			cnt := c.rangeCounts[w][u]
			c.rangeCounts[w][u] = off
			off += cnt
		}
		if counted < workers {
			c.rangeCounts[counted][u] = off
			off = c.invOff[u] + c.coverage.counts[u]
		}
	}
	c.invOff[c.n] = off

	if cap(c.invArena) < len(c.arena) {
		c.invArena = make([]int32, len(c.arena))
	} else {
		c.invArena = c.invArena[:len(c.arena)]
	}
	parallelFor(workers, workers, func(lo, hi int) {
		for w := lo; w < hi; w++ {
			bases := c.rangeCounts[w]
			for i := bounds[w]; i < bounds[w+1]; i++ {
				id := int32(i)
				for _, u := range c.arena[c.offsets[i]:c.offsets[i+1]] {
					c.invArena[bases[u]] = id
					bases[u]++
				}
			}
		}
	})
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

// pushEntry appends an entry and restores heap order (heap.Push without
// the interface boxing).
func (h *celfHeap) pushEntry(e celfEntry) {
	*h = append(*h, e)
	heap.Fix(h, len(*h)-1)
}

// GreedyMaxCoverage selects up to k nodes from candidates maximizing
// coverage, the standard RIS selection step of IMM. It returns the chosen
// nodes in selection order and their cumulative coverage after each pick;
// both are identical for every worker count (0 = GOMAXPROCS).
//
// The implementation is heap-based CELF: marginal coverage only decreases
// as nodes are selected, so each pop either carries a gain evaluated this
// round (fresh — accept it) or a stale upper bound (re-evaluate and sift).
// This replaces a full O(|C|) rescan per pick with O(log |C|) heap work
// plus the few re-evaluations lazy greedy actually needs, which matters
// when candidates are all n nodes (IMM's selection phase). With one
// worker each stale top is refreshed in place, one at a time; with more,
// stale entries are refreshed in growing batches across the workers.
func (c *Collection) GreedyMaxCoverage(candidates []graph.NodeID, k, workers int) ([]graph.NodeID, []int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	c.BuildIndex(workers)
	m := c.NewMarks()
	h := make(celfHeap, len(candidates))
	parallelFor(len(candidates), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			u := candidates[i]
			h[i] = celfEntry{node: u, gain: int(c.invOff[u+1] - c.invOff[u])}
		}
	})
	heap.Init(&h)
	var chosen []graph.NodeID
	var cum []int
	var batch []celfEntry
	batchSize := initialRefreshBatch
	for len(chosen) < k && h.Len() > 0 {
		round := len(chosen)
		if top := h[0]; top.round == round {
			if top.gain == 0 {
				// The best fresh marginal is zero; nothing can add coverage.
				break
			}
			m.Cover(top.node)
			chosen = append(chosen, top.node)
			cum = append(cum, m.Count())
			h.popTop()
			batchSize = initialRefreshBatch
			continue
		}
		if workers == 1 {
			// Stale bound: refresh in place and restore heap order.
			h[0].gain = m.Marginal(h[0].node)
			h[0].round = round
			heap.Fix(&h, 0)
			continue
		}
		// Pop the stale prefix (up to batchSize entries), recount the
		// popped marginals concurrently — Marks is read-only here, writes
		// happen only on the single-threaded Cover above — and sift the
		// refreshed entries back.
		batch = batch[:0]
		for len(h) > 0 && len(batch) < batchSize && h[0].round != round {
			batch = append(batch, h.popTop())
		}
		w := workers
		if len(batch) < minParallelRefresh {
			w = 1
		}
		parallelFor(len(batch), w, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				batch[i].gain = m.Marginal(batch[i].node)
				batch[i].round = round
			}
		})
		for _, e := range batch {
			h.pushEntry(e)
		}
		if batchSize < maxRefreshBatch {
			batchSize *= 2
		}
	}
	return chosen, cum
}
