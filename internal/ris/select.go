package ris

import (
	"container/heap"
	"runtime"
	"sort"
	"sync"

	"repro/internal/graph"
)

// This file adds the parallel marginal-gain evaluation path of
// GreedyMaxCoverage. The serial CELF in coverage.go pops one stale heap
// entry at a time and re-evaluates it inline; on IMM's selection phase over
// all n candidates of a multi-million-node graph that single core is the
// last serial hot path of the pipeline. The parallel path keeps CELF's lazy
// re-evaluation but shards the work that dominates it:
//
//   - the CSR inverted index is built with a range-partitioned counting
//     sort (per-worker per-node counts combined into exact write bases, so
//     the filled index is byte-identical to the serial build),
//   - the initial per-candidate gains are evaluated concurrently (each is
//     an O(1) index lookup once the index exists),
//   - stale heap entries are popped in batches and their marginals
//     recounted concurrently, then sifted back.
//
// Selections are identical to the serial path for any worker count: a node
// is picked only when its freshly evaluated gain tops every other entry's
// (stale ⇒ upper-bound) key, so the pick is the (gain, smaller-ID) argmax
// of the true marginals regardless of how many entries a batch refreshed.
// TestGreedyMaxCoverageParallelMatchesSerial enforces this.

// Refresh batches grow geometrically from initialRefreshBatch to
// maxRefreshBatch while the heap top stays stale, and reset on every
// pick. CELF's laziness is the whole point — after a pick most entries
// are stale but only a few ever need re-evaluation — so a fixed large
// batch would recount hundreds of marginals the serial path never
// touches; doubling bounds the wasted refreshes at ~2× the needed ones
// while still offering whole batches to the workers when a round really
// does re-evaluate many candidates.
const (
	initialRefreshBatch = 8
	maxRefreshBatch     = 1024
)

// minParallelIndexSets is the collection size below which the parallel
// index build falls back to the serial one (fan-out costs more than the
// counting passes save).
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

// BuildIndex materializes the CSR inverted index with up to workers
// goroutines (0 = GOMAXPROCS), or returns immediately if it is already
// valid. The result is identical to the lazily built serial index —
// per-node set ids stay ascending — so queries cannot tell the difference.
// Callers that will read the index concurrently (oracle batch queries,
// the parallel CELF) build it here first; all index reads after that are
// lock-free.
func (c *Collection) BuildIndex(workers int) {
	if c.invValid {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > c.Len() {
		workers = c.Len()
	}
	if workers <= 1 || c.Len() < minParallelIndexSets {
		c.ensureIndex()
		return
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
	// so steady-state rebuilds (one per Filter or top-up) allocate nothing.
	for len(c.rangeCounts) < workers {
		c.rangeCounts = append(c.rangeCounts, nil)
	}
	parallelFor(workers, workers, func(lo, hi int) {
		for w := lo; w < hi; w++ {
			if cap(c.rangeCounts[w]) < c.n {
				c.rangeCounts[w] = make([]int32, c.n)
			} else {
				c.rangeCounts[w] = c.rangeCounts[w][:c.n]
				for i := range c.rangeCounts[w] {
					c.rangeCounts[w][i] = 0
				}
			}
			counts := c.rangeCounts[w]
			for i := bounds[w]; i < bounds[w+1]; i++ {
				for _, u := range c.arena[c.offsets[i]:c.offsets[i+1]] {
					counts[u]++
				}
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
	// order, so per-node ids come out ascending — the serial layout.
	off := int32(0)
	for u := 0; u < c.n; u++ {
		c.invOff[u] = off
		for w := 0; w < workers; w++ {
			cnt := c.rangeCounts[w][u]
			c.rangeCounts[w][u] = off
			off += cnt
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

// GreedyMaxCoverageWorkers is GreedyMaxCoverage with parallel marginal
// evaluation: workers > 1 shards the index build, the initial gains, and
// batched CELF re-evaluations across goroutines; workers <= 1 runs the
// serial path, and 0 resolves to GOMAXPROCS. The selected nodes and
// cumulative coverage curve are identical for every worker count.
func (c *Collection) GreedyMaxCoverageWorkers(candidates []graph.NodeID, k, workers int) ([]graph.NodeID, []int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 1 {
		return c.GreedyMaxCoverage(candidates, k)
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
	batch := make([]celfEntry, 0, maxRefreshBatch)
	batchSize := initialRefreshBatch
	for len(chosen) < k && h.Len() > 0 {
		round := len(chosen)
		if top := h[0]; top.round == round {
			if top.gain == 0 {
				break
			}
			m.Cover(top.node)
			chosen = append(chosen, top.node)
			cum = append(cum, m.Count())
			h.popTop()
			batchSize = initialRefreshBatch
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
