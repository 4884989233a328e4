package ris

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/cascade"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/rng"
)

// TargetIndex is a read-only node-to-counter table over a target set:
// counter[u] is the counter that node u's entries bump. A target's
// counter is spareCounters plus its slot (slots follow the target order;
// a repeated target keeps its first slot); every other node's is one of
// spareCounters scratch counters, u mod spareCounters, that nothing
// reads. Counting an entry is then one table load and one increment,
// without a branch: RR sets hold the influential targets often, so a
// branch on "is u a target" mispredicts, and a bitset with a rank per
// 64-node word measured about twice the per-entry cost of this table and
// of the per-node counts it replaced (on a nethept-s pool). Spreading the
// other nodes over several scratch counters keeps their increments from
// queueing behind one another. An instance builds its table once and
// every campaign on it, and on the instances its topology deltas derive,
// shares it; nothing writes it after NewTargetIndex.
type TargetIndex struct {
	counter []uint16
	size    int // targets
}

// spareCounters is the number of scratch counters the non-target nodes
// share.
const spareCounters = 8

// MaxTargets is the largest target set a TargetIndex can slot.
const MaxTargets = math.MaxUint16 + 1 - spareCounters

// NewTargetIndex builds the table of targets over a graph with n nodes.
// It panics on more than MaxTargets distinct targets.
func NewTargetIndex(n int, targets []graph.NodeID) *TargetIndex {
	t := &TargetIndex{counter: make([]uint16, n)}
	for u := range t.counter {
		t.counter[u] = uint16(u % spareCounters)
	}
	for _, u := range targets {
		if t.counter[u] >= spareCounters {
			continue
		}
		if t.size == MaxTargets {
			panic(fmt.Sprintf("ris: more than %d targets", MaxTargets))
		}
		t.counter[u] = uint16(spareCounters + t.size)
		t.size++
	}
	return t
}

// counters returns the number of counters a Coverage over t keeps.
func (t *TargetIndex) counters() int { return spareCounters + t.size }

// add adds d to the counter of every entry of nodes, which must hold no
// dropped set's (complemented) entries.
func (t *TargetIndex) add(counts []int32, nodes []graph.NodeID, d int32) {
	counter := t.counter
	for _, u := range nodes {
		counts[counter[u]] += d
	}
}

// Coverage maintains the containment counts of a target set — how many
// of a Collection's RR sets hold each target — incrementally as RR sets
// are appended. The adaptive steppers check their stopping rule after
// every batch and compare only the alive targets' estimates; recounting
// them through the node-to-set index would walk every target's chain per
// batch per look, while Coverage keeps the counts current in O(new batch
// entries), one table load each, and answers each query in O(1). Its state is one int32 per target (plus a few scratch
// counters), not per node, so a fresh campaign's counts cost O(|T|) to
// allocate and clear; the node-to-counter table is a TargetIndex the
// campaigns of an instance share. Sets a Batcher copies from a shared
// first look are not scanned at all when the tracker is current: the
// Base counted them once for every campaign (see Batcher.GrowTo).
//
// A Coverage follows its Collection's drops: Filter and InvalidateTouching
// give a dropped set's counts back in the same pass, compaction renumbers
// the counted prefix with the sets, and Collection.Reset zeroes it — so,
// unlike Marks, it stays valid across the filter/top-up cycles of the
// adaptive round loop. At most one Coverage is attached to a Collection;
// attaching a new one replaces the old.
type Coverage struct {
	c      *Collection
	t      *TargetIndex
	counts []int32 // indexed by TargetIndex.counter
	seen   int     // the live sets among slots [0, seen) are reflected in counts
}

// setTargets switches the tracker to t, with every count at zero and
// nothing folded; the count storage is reused.
func (cov *Coverage) setTargets(t *TargetIndex) {
	cov.t = t
	cov.counts = slices.Grow(cov.counts[:0], t.counters())[:t.counters()]
	cov.reset()
}

// Update folds the RR sets appended since the last Update into the
// counts; a set dropped before it was folded is skipped. O(entries of the
// new sets).
func (cov *Coverage) Update() {
	c := cov.c
	for i := cov.seen; i < len(c.roots); i++ {
		if c.roots[i] != deadRoot {
			cov.t.add(cov.counts, c.entries(i, i+1), 1)
		}
	}
	cov.seen = len(c.roots)
}

// Count returns |{i : u ∈ R_i}| over the live sets folded in so far
// without touching the node-to-set index. u must be a target: Count panics
// on any other node.
func (cov *Coverage) Count(u graph.NodeID) int {
	k := cov.t.counter[u]
	if k < spareCounters {
		panic(fmt.Sprintf("ris: coverage count of node %d, which is not a target", u))
	}
	return int(cov.counts[k])
}

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
	// roots and node-to-set index).
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
	return &Batcher{model: model, cov: &Coverage{}, reuse: true}
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

// SetTargets attaches the target table Count answers for and zeroes the
// counts; the next Count folds every set held. Only a batcher whose
// table is its base's (the same pointer) takes the counts of the sets it
// copies from the base instead of scanning them. Reset keeps the table.
func (b *Batcher) SetTargets(t *TargetIndex) { b.cov.setTargets(t) }

// SetInterrupt installs (or, with nil, removes) a cancellation poll for
// future GrowTo batches: it is polled before every chunk of 64 draws, by
// every worker, so it must be safe for concurrent use; a non-nil return
// aborts the batch, and GrowTo returns that error.
func (b *Batcher) SetInterrupt(f func() error) { b.interrupt = f }

// Reset returns the batcher to its freshly constructed state while keeping
// every warm buffer: the collection's arenas and the coverage tracker's
// count array survive for the next run. Accounting is zeroed, the base
// and interrupt detached (the target table stays), and the collection
// emptied (version −1), so a new campaign checked out on a warm batcher
// can never mistake a previous campaign's RR sets for its own — in
// particular, a fresh residual's version 0 must not collide with stale
// sets drawn on some earlier residual's version 0 (Collection.Filter is
// version-keyed).
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
		b.cov.c = b.col
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
// something is drawn. The coverage tracker folds drawn sets in at the
// next Count, so IMM, which never asks, never pays for it; copied sets it
// takes from the base's per-chunk counts when it is current (see adopt).
// It returns the collection size, which can fall short of target only
// when the residual has no alive nodes — or when the installed interrupt
// aborted the batch, in which case the error is non-nil and the
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
// first when it is shorter, and lets c's node-to-set index start from the
// base's. c holds exactly the base's sets [0, c.Len()), so when the
// coverage tracker has folded them all and counts the base's targets, it
// takes the copies' counts from the base (firstLook.countInto) and stays
// current, without reading their entries.
func (b *Batcher) adopt(c *Collection, res *graph.Residual, target, workers int) error {
	fl, err := b.base.growTo(res, target, workers, b.interrupt)
	if err != nil {
		return err
	}
	sets := fl.sets
	from, to := c.Len(), min(target, sets.Len())
	c.noteVersion(res.Version())
	c.appendRange(sets, from, to)
	if to > 0 {
		c.shared, c.sharedSets = sets, to
	}
	if cov := b.cov; cov.t == b.base.targets && cov.seen == from {
		fl.countInto(cov.t, cov.counts, from, to)
		cov.seen = to
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

// Count returns the containment count of target u over every set held,
// folding the sets added since the last Count into the tracker first. u
// must be in the table attached by SetTargets: Count panics on any other
// node.
func (b *Batcher) Count(u graph.NodeID) int {
	if b.cov.seen < len(b.col.roots) {
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
