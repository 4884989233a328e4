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
// offset and root arrays plus their drop index (Collection.index), from
// which a campaign's collection starts its own at its first drop instead
// of chaining the copied sets again. A growth publishes new arrays and
// never writes published ones, so campaigns copy from a snapshot outside
// the lock a growth holds across its whole draw, and Len and Footprint
// never take it. A Base is safe for concurrent use.
type Base struct {
	g     *graph.Graph
	model cascade.Model
	key   uint64

	mu   sync.Mutex                 // serializes growth
	sets atomic.Pointer[Collection] // published; never written after publication
}

// NewBase returns an empty first-look pool for g under model, keyed by
// key. Nothing is drawn until a campaign asks.
func NewBase(g *graph.Graph, model cascade.Model, key uint64) *Base {
	sets := NewCollection(g.N())
	sets.version = 0
	bs := &Base{g: g, model: model, key: key}
	bs.sets.Store(sets)
	return bs
}

// Len returns the number of sets published so far, always a whole number
// of chunks. It never waits on a growth in progress.
func (bs *Base) Len() int { return bs.sets.Load().Len() }

// Footprint returns the number of published sets and the bytes of their
// arrays (Collection.Bytes), both read from one snapshot. It never waits
// on a growth in progress.
func (bs *Base) Footprint() (sets int, bytes int64) {
	c := bs.sets.Load()
	return c.Len(), c.Bytes()
}

// fits reports whether res is the untouched full residual of the base's
// graph, the only view its sets are draws on.
func (bs *Base) fits(res *graph.Residual) bool {
	return res.Graph() == bs.g && res.Version() == 0
}

// growTo returns the published sets after growing them to at least n,
// rounded up to whole chunks, by drawing the missing chunks on res (which
// must fit) through a borrowed pool. The interrupt is polled with the
// lock held, so it must not wait on another growth of this base. An
// interrupt or a panic during the draw leaves the published sets as they
// were and the lock released.
func (bs *Base) growTo(res *graph.Residual, n, workers int, interrupt func() error) (*Collection, error) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	sets := bs.sets.Load()
	have := sets.Len()
	if have >= n {
		return sets, nil
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
		sets = sets.extended(p.grown)
		sets.index()
		bs.sets.Store(sets)
	}
	p.release()
	if err != nil {
		return nil, err
	}
	return sets, nil
}
