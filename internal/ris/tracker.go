package ris

import (
	"time"

	"repro/internal/cascade"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/rng"
)

// Coverage maintains per-node single-node containment counts
// (CountContaining for every node at once) incrementally as RR sets are
// appended to a Collection. The adaptive sampling stepper checks its
// stopping rule after every batch; recomputing CountContaining through
// the CSR inverted index would rebuild the index — an O(arena + n) pass —
// per batch per look, while Coverage keeps the counts current in
// O(new batch nodes) and answers each query in O(1), so a per-batch check
// over the alive targets costs O(batch + alive).
//
// A Coverage is compacted in lockstep by Collection.Filter and
// InvalidateTouching (counts of dropped sets are subtracted during the
// same pass) and zeroed by Collection.Reset, so — unlike Marks — it stays
// valid across the filter/top-up cycles of the adaptive round loop.
// Storage (one int32 per node of the full graph) is allocated by the
// first Update and reused across batches and rounds. At most one Coverage
// is attached to a Collection; attaching a new one replaces the old.
type Coverage struct {
	c      *Collection
	counts []int32
	seen   int // sets [0, seen) are reflected in counts
}

// Update folds the RR sets appended since the last Update (or Filter)
// into the counts, allocating them on first use. O(nodes of the new sets).
func (cov *Coverage) Update() {
	c := cov.c
	if cov.counts == nil {
		cov.counts = make([]int32, c.n)
	}
	for i := cov.seen; i < c.Len(); i++ {
		for _, u := range c.arena[c.offsets[i]:c.offsets[i+1]] {
			cov.counts[u]++
		}
	}
	cov.seen = c.Len()
}

// Count returns |{i : u ∈ R_i}| over the sets folded in so far — equal to
// c.CountContaining(u) whenever Update has seen every set — without
// touching the inverted index.
func (cov *Coverage) Count(u graph.NodeID) int { return int(cov.counts[u]) }

// uncount gives a dropped set's containment counts back.
func (cov *Coverage) uncount(nodes []graph.NodeID) {
	for _, u := range nodes {
		cov.counts[u]--
	}
}

// reset zeroes the counts in place (storage is retained).
func (cov *Coverage) reset() {
	clear(cov.counts)
	cov.seen = 0
}

// Batcher owns the draw/filter/top-up cycle every RR-consuming run shares:
// a persistent SamplerPool, one Collection reused across batches and
// residual versions with its Coverage tracker, and the sampling
// accounting (drawn / requested / reused / peak bytes / wall time /
// batches / visits / edge touches) that runs report. The adaptive
// sampling stepper (both policies), ADG's sampled rounds and IMM's θ
// search all draw through a Batcher instead of hand-rolling the same
// loop. One-shot selections (nonadaptive greedy, imm.SpreadLowerBound)
// draw through SamplerPool.Generate instead.
type Batcher struct {
	model cascade.Model
	pool  *SamplerPool
	col   *Collection
	cov   *Coverage
	reuse bool

	drawn, requested, reused, peakBytes, samplingNS int64
	visits, edgeTouches                             int64
	batches                                         int
}

// NewBatcher creates a batcher drawing under the given model. Cross-version
// reuse is on by default; SetReuse(false) makes Sync regenerate from
// scratch instead of validity-filtering.
func NewBatcher(model cascade.Model) *Batcher {
	return &Batcher{model: model, pool: NewSamplerPool(model), reuse: true}
}

// Model returns the diffusion model the batcher draws under. Warm-reuse
// callers (the service instance registry) use it to refuse handing a
// batcher to a run under a different model.
func (b *Batcher) Model() cascade.Model { return b.model }

// SetReuse toggles cross-version reuse (see Collection.Filter for how
// kept sets deviate from fresh draws).
func (b *Batcher) SetReuse(on bool) { b.reuse = on }

// SetInterrupt installs a cancellation poll on the underlying sampler
// pool: GrowTo batches abort mid-draw when it returns an error (see
// SamplerPool.SetInterrupt). nil removes it.
func (b *Batcher) SetInterrupt(f func() error) { b.pool.SetInterrupt(f) }

// Reset returns the batcher to its freshly constructed state while keeping
// every warm buffer: the collection's arenas, the coverage tracker's count
// array, and the pool's per-worker samplers all survive for the next run.
// Accounting is zeroed and the collection emptied (version −1), so a new
// campaign checked out on a warm batcher can never mistake a previous
// campaign's RR sets for its own — in particular, a fresh residual's
// version 0 must not collide with stale sets drawn on some earlier
// residual's version 0 (Collection.Filter is version-keyed).
func (b *Batcher) Reset() {
	if b.col != nil {
		b.col.Reset()
	}
	b.pool.SetInterrupt(nil)
	b.drawn, b.requested, b.reused, b.peakBytes, b.samplingNS = 0, 0, 0, 0, 0
	b.visits, b.edgeTouches = 0, 0
	b.batches = 0
}

// ensureCol creates the collection and attaches its coverage tracker on
// first use; n is the node count of the full graph.
func (b *Batcher) ensureCol(n int) *Collection {
	if b.col == nil {
		b.col = NewCollection(n)
		b.cov = &Coverage{c: b.col}
		b.col.coverage = b.cov
	}
	return b.col
}

// Sync aligns the collection with the residual before a round of growth:
// with reuse on it compacts to the sets still valid on res
// (Collection.Filter) and counts the survivors as reused draws; with reuse
// off it resets the collection (warm storage, fresh sets). It returns the
// number of sets carried over.
func (b *Batcher) Sync(res *graph.Residual) int {
	c := b.ensureCol(res.FullN())
	if !b.reuse {
		c.Reset()
		return 0
	}
	kept := c.Filter(res)
	b.reused += int64(kept)
	return kept
}

// Invalidate drops the RR sets that contain any of the touched nodes of a
// topology delta (Collection.InvalidateTouching) and counts the survivors
// as reused draws, so post-delta accounting mirrors the filter/top-up
// cycle. A no-op returning 0 before the first Sync/GrowTo and whenever
// reuse is off: the next Sync discards every set anyway, so none of them
// is reused. Returns the surviving count.
func (b *Batcher) Invalidate(touched []graph.NodeID) int {
	if b.col == nil || !b.reuse {
		return 0
	}
	kept := b.col.InvalidateTouching(touched)
	b.reused += int64(kept)
	return kept
}

// GrowTo tops the collection up to target RR sets on res, drawing only the
// shortfall through the persistent pool (one batch; parent advances by one
// key only when something is drawn). The coverage tracker folds the new
// sets in at the next Count, so IMM, which never asks, never pays for it.
// It returns the collection size, which can fall short of target only
// when the residual has no alive nodes — or when the installed
// interrupt aborted the batch, in which case the error is non-nil and the
// collection contents must be treated as void.
func (b *Batcher) GrowTo(res *graph.Residual, parent *rng.RNG, target, workers int) (int, error) {
	// Fault-plane hook (no-op unless an injector is active): a batch
	// top-up is the failure-prone operation inside every campaign step,
	// so the chaos suite injects here. Checked before any state moves, so
	// an injected error leaves the batcher consistent — only a panic
	// models mid-operation corruption.
	if err := fault.Check(fault.SiteBatcherGrow); err != nil {
		return b.Len(), err
	}
	c := b.ensureCol(res.FullN())
	if shortfall := target - c.Len(); shortfall > 0 {
		before := c.Len()
		visits, touches := b.pool.Visits(), b.pool.EdgeTouches()
		start := time.Now()
		b.pool.AppendParallel(c, res, parent, shortfall, workers)
		b.samplingNS += time.Since(start).Nanoseconds()
		b.visits += int64(b.pool.Visits() - visits)
		b.edgeTouches += int64(b.pool.EdgeTouches() - touches)
		b.drawn += int64(c.Len() - before)
		b.requested += int64(shortfall)
		b.batches++
		if err := b.pool.Err(); err != nil {
			return c.Len(), err
		}
	}
	if bytes := c.Bytes(); bytes > b.peakBytes {
		b.peakBytes = bytes
	}
	return c.Len(), nil
}

// Count returns the containment count of u over every set held, folding
// the sets drawn since the last Count into the tracker first.
func (b *Batcher) Count(u graph.NodeID) int {
	if b.cov.counts == nil || b.cov.seen < b.col.Len() {
		b.cov.Update()
	}
	return b.cov.Count(u)
}

// Collection returns the batcher's collection (nil before the first Sync
// or GrowTo).
func (b *Batcher) Collection() *Collection { return b.col }

// Len returns the current number of RR sets held.
func (b *Batcher) Len() int {
	if b.col == nil {
		return 0
	}
	return b.col.Len()
}

// Accounting: totals since the batcher was created.
func (b *Batcher) Drawn() int64      { return b.drawn }     // RR sets generated
func (b *Batcher) Requested() int64  { return b.requested } // RR sets asked of the pool
func (b *Batcher) Reused() int64     { return b.reused }    // sets carried across versions by Sync
func (b *Batcher) PeakBytes() int64  { return b.peakBytes } // max Collection.Bytes seen
func (b *Batcher) SamplingNS() int64 { return b.samplingNS }
func (b *Batcher) Batches() int      { return b.batches } // generator invocations

// Bandwidth accounting: node visits and in-adjacency entries the pool
// read across every GrowTo since the batcher was created or Reset (and
// carried over by RestoreState). Together with SamplingNS they yield the
// bytes/edge-touch measurement in the benchmark tables (each visit loads
// one 16-byte metadata entry, each edge touch one 4-byte adjacency word).
func (b *Batcher) Visits() int64      { return b.visits }
func (b *Batcher) EdgeTouches() int64 { return b.edgeTouches }
