package ris

import (
	"time"

	"repro/internal/cascade"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/rng"
)

// Coverage maintains per-node single-node containment counts (how many
// RR sets hold each node) incrementally as RR sets are appended to a
// Collection. The adaptive sampling stepper checks its stopping rule
// after every batch; recounting through the CSR inverted index would
// rebuild the index — an O(arena + n) pass — per batch per look, while
// Coverage keeps the counts current in O(new batch nodes) and answers
// each query in O(1), so a per-batch check over the alive targets costs
// O(batch + alive).
//
// A Coverage follows its Collection's drops: Filter and InvalidateTouching
// give a dropped set's counts back in the same pass, compaction renumbers
// the counted prefix with the sets, and Collection.Reset zeroes it — so,
// unlike Marks, it stays valid across the filter/top-up cycles of the
// adaptive round loop. Storage (one int32 per node of the full graph) is
// allocated by the first Update and reused across batches and rounds. At
// most one Coverage is attached to a Collection; attaching a new one
// replaces the old.
type Coverage struct {
	c      *Collection
	counts []int32
	seen   int // the live sets among slots [0, seen) are reflected in counts
}

// Update folds the RR sets appended since the last Update into the
// counts, allocating them on first use; a set dropped before it was
// folded is skipped. O(nodes of the new sets).
func (cov *Coverage) Update() {
	c := cov.c
	if cov.counts == nil {
		cov.counts = make([]int32, c.n)
	}
	for i := cov.seen; i < len(c.roots); i++ {
		if c.roots[i] == deadRoot {
			continue
		}
		for _, u := range c.arena[c.offsets[i]:c.offsets[i+1]] {
			cov.counts[u]++
		}
	}
	cov.seen = len(c.roots)
}

// Count returns |{i : u ∈ R_i}| over the live sets folded in so far
// without touching the inverted index.
func (cov *Coverage) Count(u graph.NodeID) int { return int(cov.counts[u]) }

// reset zeroes the counts in place (storage is retained).
func (cov *Coverage) reset() {
	clear(cov.counts)
	cov.seen = 0
}

// Stats is the record of a Batcher's sampling work since it was created
// or Reset (carried over by RestoreState): the one value runs report,
// reports sum and checkpoints carry. Its JSON names are those of run
// results and benchmark rows. Every field but SamplingNS is
// deterministic for a fixed seed.
type Stats struct {
	// RRDrawn counts RR sets generated; RRRequested the sets asked of the
	// pool. RRRequested > RRDrawn means some draws hit an empty residual,
	// which weakens the concentration guarantee the count was sized for.
	RRDrawn     int64 `json:"rr_drawn"`
	RRRequested int64 `json:"rr_requested"`
	// RRReused counts draws avoided by reuse: the sets Sync carried across
	// residual versions, the survivors of each Invalidate, and the sets
	// GrowTo copied from a shared first look (Base).
	RRReused int64 `json:"rr_reused"`
	// RRPeakBytes is the largest Collection.Bytes seen (arena, offsets,
	// roots and inverted index).
	RRPeakBytes int64 `json:"rr_peak_bytes"`
	// SamplingNS is the wall time spent inside draws; RRDrawn/SamplingNS
	// is the RR throughput.
	SamplingNS int64 `json:"sampling_ns"`
	// RRVisits and RREdgeTouches count node visits and in-adjacency
	// entries read while expanding RR sets — the exact work counters
	// behind the bytes-per-edge-touch traffic model in the benchmark
	// tables (each visit reads one 16-byte metadata entry and one
	// visited-mask byte; each touch one 4-byte adjacency word).
	RRVisits      int64 `json:"rr_visits"`
	RREdgeTouches int64 `json:"rr_edge_touches"`
	// RRBatches counts pool invocations (GrowTo calls that drew).
	RRBatches int `json:"rr_batches"`
}

// Add folds o into s: every counter adds up, RRPeakBytes takes the
// larger of the two.
func (s *Stats) Add(o Stats) {
	s.RRDrawn += o.RRDrawn
	s.RRRequested += o.RRRequested
	s.RRReused += o.RRReused
	s.RRPeakBytes = max(s.RRPeakBytes, o.RRPeakBytes)
	s.SamplingNS += o.SamplingNS
	s.RRVisits += o.RRVisits
	s.RREdgeTouches += o.RREdgeTouches
	s.RRBatches += o.RRBatches
}

// Batcher is the one way to draw RR sets. It owns the draw/filter/top-up
// cycle every RR-consuming run shares: one Collection reused across
// batches and residual versions with its Coverage tracker, and the Stats
// that runs report. It owns no sampler scratch: each batch borrows a warm
// samplerPool and hands it back. The adaptive sampling stepper (both
// policies), ADG's sampled rounds, IMM's θ search and the one-shot draws
// of the nonadaptive greedy and imm.SpreadLowerBound all draw through a
// Batcher. Its draws depend on the parent stream and the counts only (see
// GrowTo), so a one-shot draw through a fresh Batcher is reproducible at
// any worker count.
type Batcher struct {
	model     cascade.Model
	col       *Collection
	cov       *Coverage
	reuse     bool
	interrupt func() error
	// base, while non-nil, is the shared first look the collection is a
	// prefix of (SetBase); the first private draw, drop or delta detaches
	// it for good.
	base  *Base
	stats Stats
}

// NewBatcher creates a batcher drawing under the given model. Cross-version
// reuse is on by default; SetReuse(false) makes Sync regenerate from
// scratch instead of validity-filtering.
func NewBatcher(model cascade.Model) *Batcher {
	return &Batcher{model: model, reuse: true}
}

// Model returns the diffusion model the batcher draws under. Warm-reuse
// callers (the service instance registry) use it to refuse handing a
// batcher to a run under a different model.
func (b *Batcher) Model() cascade.Model { return b.model }

// SetReuse toggles cross-version reuse (see Collection.Filter for how
// kept sets deviate from fresh draws).
func (b *Batcher) SetReuse(on bool) { b.reuse = on }

// SetBase attaches a shared first look (or, with nil, detaches it). While
// the residual GrowTo is asked about is the base's untouched graph
// (version 0) and the collection holds only base sets, GrowTo copies its
// shortfall from the base instead of drawing it, without advancing the
// parent stream. Each copied set is an independent draw on that residual,
// so a campaign's estimates keep their law; campaigns sharing a base are
// correlated through it. Attach it to an empty batcher, after Reset;
// RestoreState of a non-empty snapshot and the first private draw, drop
// or delta detach it for good.
func (b *Batcher) SetBase(bs *Base) {
	if bs != nil && bs.model != b.model {
		panic("ris: base drawn under a different model than the batcher")
	}
	b.base = bs
}

// SetInterrupt installs (or, with nil, removes) a cancellation poll for
// future GrowTo batches: it is polled before every chunk of 64 draws, by
// every worker, so it must be safe for concurrent use; a non-nil return
// aborts the batch, and GrowTo returns that error.
func (b *Batcher) SetInterrupt(f func() error) { b.interrupt = f }

// Reset returns the batcher to its freshly constructed state while keeping
// every warm buffer: the collection's arenas and the coverage tracker's
// count array survive for the next run. Accounting is zeroed, the base
// and interrupt detached, and the collection emptied (version −1), so a
// new campaign checked out on a warm batcher can never mistake a previous
// campaign's RR sets for its own — in particular, a fresh residual's
// version 0 must not collide with stale sets drawn on some earlier
// residual's version 0 (Collection.Filter is version-keyed).
func (b *Batcher) Reset() {
	if b.col != nil {
		b.col.Reset()
	}
	b.interrupt = nil
	b.base = nil
	b.stats = Stats{}
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
// with reuse on it drops the sets no longer valid on res
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
	b.stats.RRReused += int64(kept)
	return kept
}

// Invalidate drops the RR sets that contain any of the touched nodes of a
// topology delta (Collection.InvalidateTouching) and counts the survivors
// as reused draws, so post-delta accounting mirrors the filter/top-up
// cycle. It detaches the base: the graph is no longer the base's. A no-op
// returning 0 before the first Sync/GrowTo and whenever reuse is off: the
// next Sync discards every set anyway, so none of them is reused. Returns
// the surviving count.
func (b *Batcher) Invalidate(touched []graph.NodeID) int {
	b.base = nil
	if b.col == nil || !b.reuse {
		return 0
	}
	kept := b.col.InvalidateTouching(touched)
	b.stats.RRReused += int64(kept)
	return kept
}

// GrowTo tops the collection up to target RR sets on res. While an
// attached base fits (see SetBase) the shortfall is copied from it,
// counted as reused and never as drawn; otherwise it is drawn through a
// borrowed pool in one batch, and parent advances by one key only when
// something is drawn. The coverage tracker folds the new sets in at the
// next Count, so IMM, which never asks, never pays for it. It returns the
// collection size, which can fall short of target only when the residual
// has no alive nodes — or when the installed interrupt aborted the batch,
// in which case the error is non-nil and the collection contents must be
// treated as void.
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
		var err error
		if b.base != nil && b.base.fits(res) {
			err = b.adopt(c, res, target, workers)
		} else {
			b.base = nil
			err = b.draw(c, res, parent, shortfall, workers)
		}
		if err != nil {
			return c.Len(), err
		}
	}
	if bytes := c.Bytes(); bytes > b.stats.RRPeakBytes {
		b.stats.RRPeakBytes = bytes
	}
	return c.Len(), nil
}

// adopt copies the base's sets [c.Len(), target) onto c, growing the base
// first when it is shorter, and lets c's drop index start from the base's.
func (b *Batcher) adopt(c *Collection, res *graph.Residual, target, workers int) error {
	sets, err := b.base.growTo(res, target, workers, b.interrupt)
	if err != nil {
		return err
	}
	from, to := c.Len(), min(target, sets.Len())
	c.noteVersion(res.Version())
	c.appendRange(sets, from, to)
	if to > 0 {
		c.shared, c.sharedSets = sets, to
	}
	b.stats.RRReused += int64(to - from)
	return nil
}

// draw appends count fresh sets to c through a borrowed pool and accounts
// for them.
func (b *Batcher) draw(c *Collection, res *graph.Residual, parent *rng.RNG, count, workers int) error {
	p := borrowPool(b.model)
	p.interrupt = b.interrupt
	before := c.Len()
	visits, touches := p.Visits(), p.EdgeTouches()
	start := time.Now()
	p.AppendParallel(c, res, parent, count, workers)
	b.stats.SamplingNS += time.Since(start).Nanoseconds()
	b.stats.RRVisits += int64(p.Visits() - visits)
	b.stats.RREdgeTouches += int64(p.EdgeTouches() - touches)
	b.stats.RRDrawn += int64(c.Len() - before)
	b.stats.RRRequested += int64(count)
	b.stats.RRBatches++
	err := p.Err()
	p.release()
	return err
}

// Count returns the containment count of u over every set held, folding
// the sets drawn since the last Count into the tracker first.
func (b *Batcher) Count(u graph.NodeID) int {
	if b.cov.counts == nil || b.cov.seen < len(b.col.roots) {
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

// Stats returns the sampling accounting since the batcher was created or
// Reset.
func (b *Batcher) Stats() Stats { return b.stats }
