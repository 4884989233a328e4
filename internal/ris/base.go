package ris

import (
	"sync"
	"sync/atomic"

	"repro/internal/cascade"
	"repro/internal/graph"
)

// Base is an instance's shared first look: an append-only pool of RR sets
// on the instance's full graph. Every campaign on an instance starts from
// the untouched graph, so its first-look sets are draws from one law; a
// Batcher with a Base attached (SetBase) copies them from here instead of
// drawing its own, and many campaigns pay for one draw.
//
// Set i comes from chunk ⌊i/64⌋'s substream, keyed Mix64(key +
// chunk·Golden) — the keying of one AppendParallel batch, indexed by the
// absolute chunk rather than counted from the batch start. The pool is
// therefore a pure function of (key, length): it does not depend on the
// order it grew in, on the worker count, or on which campaign grew it.
// It grows lazily, in whole chunks under its own mutex, to the largest
// target any campaign asked for, and keeps only exactly sized arena,
// offset and root arrays plus their node-to-set index (Collection.index),
// from which a campaign's collection starts its own when it first builds
// one, instead of chaining the copied sets again. It also keeps, at every chunk
// boundary, the targets' containment counts over the sets before it,
// counted once per growth, so a campaign's Coverage takes the counts of
// the sets it copies from two of these vectors instead of scanning every
// copied entry. A growth publishes new arrays and never
// writes published ones, so campaigns copy from a snapshot outside the
// lock a growth holds across its whole draw, and Len and Footprint never
// take it. A Base is safe for concurrent use.
type Base struct {
	g       *graph.Graph
	model   cascade.Model
	key     uint64
	targets *TargetIndex

	mu   sync.Mutex                // serializes growth
	look atomic.Pointer[firstLook] // published; never written after publication
}

// firstLook is one published state of a Base: its sets and, for a target
// table of m counters, cum[k·m+j], counter j's count over the first 64·k
// sets, for every chunk boundary k up to Len/64.
type firstLook struct {
	sets *Collection
	cum  []int32
}

// NewBase returns an empty first-look pool for g under model, keyed by
// key, keeping per-chunk counts of the targets in the table. Nothing is
// drawn until a campaign asks.
func NewBase(g *graph.Graph, model cascade.Model, key uint64, targets *TargetIndex) *Base {
	fl := &firstLook{sets: NewCollection(g.N()), cum: make([]int32, targets.counters())}
	fl.sets.version = 0
	bs := &Base{g: g, model: model, key: key, targets: targets}
	bs.look.Store(fl)
	return bs
}

// Len returns the number of sets published so far, always a whole number
// of chunks. It never waits on a growth in progress.
func (bs *Base) Len() int { return bs.look.Load().sets.Len() }

// Footprint returns the number of published sets and the bytes of their
// arrays (Collection.Bytes; the per-chunk counts are not included), both
// read from one snapshot. It never waits on a growth in progress.
func (bs *Base) Footprint() (sets int, bytes int64) {
	c := bs.look.Load().sets
	return c.Len(), c.Bytes()
}

// fits reports whether res is the untouched full residual of the base's
// graph, the only view its sets are draws on.
func (bs *Base) fits(res *graph.Residual) bool {
	return res.Graph() == bs.g && res.Version() == 0
}

// growTo returns the published look after growing it to at least n sets,
// rounded up to whole chunks, by drawing the missing chunks on res (which
// must fit) through a borrowed pool and counting their targets. The
// interrupt is polled with the lock held, so it must not wait on another
// growth of this base. An interrupt or a panic during the draw leaves the
// published look as it was and the lock released.
func (bs *Base) growTo(res *graph.Residual, n, workers int, interrupt func() error) (*firstLook, error) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	fl := bs.look.Load()
	have := fl.sets.Len()
	if have >= n {
		return fl, nil
	}
	p := borrowPool(bs.model)
	if p.grown == nil {
		p.grown = NewCollection(0)
	}
	p.grown.Reset()
	p.interrupt = interrupt
	chunks := (n - have + interruptStride - 1) / interruptStride
	p.appendChunks(p.grown, res, bs.key, uint64(have/interruptStride), chunks*interruptStride, workers)
	err := p.Err()
	if err == nil {
		fl = &firstLook{sets: fl.sets.extended(p.grown), cum: bs.cumulate(fl.cum, p.grown)}
		fl.sets.index()
		bs.look.Store(fl)
	}
	p.release()
	if err != nil {
		return nil, err
	}
	return fl, nil
}

// cumulate returns a new array holding cum followed by one count vector
// per chunk of grown, each the previous vector plus the chunk's target
// counts.
func (bs *Base) cumulate(cum []int32, grown *Collection) []int32 {
	m, chunks := bs.targets.counters(), grown.Len()/interruptStride
	out := make([]int32, len(cum)+chunks*m)
	copy(out, cum)
	for k, at := 0, len(cum); k < chunks; k, at = k+1, at+m {
		next := out[at : at+m]
		copy(next, out[at-m:at])
		bs.targets.add(next, grown.entries(k*interruptStride, (k+1)*interruptStride), 1)
	}
	return out
}

// countInto adds the target counts of the look's sets [from, to) to
// counts, which t (the base's table) slots: the whole chunks between as
// the difference of two cum vectors, the partial chunks at either end by
// scanning their entries.
func (fl *firstLook) countInto(t *TargetIndex, counts []int32, from, to int) {
	lo, hi := (from+interruptStride-1)/interruptStride, to/interruptStride
	if lo > hi { // from and to fall inside one chunk
		t.add(counts, fl.sets.entries(from, to), 1)
		return
	}
	t.add(counts, fl.sets.entries(from, lo*interruptStride), 1)
	m := len(counts)
	a, z := fl.cum[lo*m:(lo+1)*m], fl.cum[hi*m:(hi+1)*m]
	for j := range counts {
		counts[j] += z[j] - a[j]
	}
	t.add(counts, fl.sets.entries(hi*interruptStride, to), 1)
}
