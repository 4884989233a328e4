package ris

import (
	"runtime"
	"sync"
	"sync/atomic"
	"weak"

	"repro/internal/cascade"
	"repro/internal/graph"
	"repro/internal/rng"
)

// samplerPool holds persistent per-worker samplers for bulk RR
// generation. Worker scratch (visited marks, traversal stacks, output
// collections) and RNG stream objects survive across batches, so a warm
// pool draws a whole attempt without allocating — unlike the
// one-sampler-per-call pattern, which paid a fresh O(N) visited array per
// worker per batch. Batchers and bases own none: each batch borrows a
// warm pool (borrowPool) and hands it back (release), so scratch is
// shared by every campaign of the process instead of being paid again
// per campaign. A pool is not safe for concurrent use; its workers
// synchronize internally.
type samplerPool struct {
	model   cascade.Model
	workers []*poolWorker

	// The batch in flight, read by every worker.
	res     *graph.Residual
	key     uint64
	chunk0  uint64 // absolute index of the batch's first chunk
	count   int
	nw      int
	wg      sync.WaitGroup
	stop    atomic.Bool
	stopErr error

	// interrupt, when non-nil, is polled before every chunk of
	// interruptStride draws; a non-nil return aborts the batch, voiding
	// whatever it appended, and is reported by Err until the next batch.
	// The function must be safe for concurrent use — every worker calls it.
	interrupt func() error
	err       error

	// grown receives a Base's growth before it is published.
	grown *Collection
}

// idle keeps each diffusion model's warm samplerPools between batches,
// held weakly: a pool idle through a garbage collection is reclaimed like
// any garbage, so a process that stopped drawing keeps no O(N) scratch
// alive, and the next batch after a collection builds one cold pool. A
// weak free list rather than a sync.Pool, because a sync.Pool also drops
// items at random under the race detector, which would make the warm
// draw loop's zero-allocation contract untestable there.
var idle [2]struct {
	sync.Mutex
	pools []weak.Pointer[samplerPool]
}

// borrowPool takes a warm pool for model off its free list, or makes a
// cold one.
func borrowPool(model cascade.Model) *samplerPool {
	l := &idle[model]
	l.Lock()
	defer l.Unlock()
	for n := len(l.pools); n > 0; n-- {
		p := l.pools[n-1].Value()
		l.pools = l.pools[:n-1]
		if p != nil {
			return p
		}
	}
	return &samplerPool{model: model}
}

// release hands the pool back to its free list, dropping the batch's
// references (residual, interrupt) so an idle pool pins no graph.
func (p *samplerPool) release() {
	p.res, p.interrupt = nil, nil
	for _, wk := range p.workers {
		wk.s.res = nil
	}
	l := &idle[p.model]
	l.Lock()
	defer l.Unlock()
	l.pools = append(l.pools, weak.Make(p))
}

// poolWorker is one worker's persistent state. Worker 0 draws straight
// into the destination collection; the others fill out, which is spliced
// in after them in worker order.
type poolWorker struct {
	s   *sampler
	r   rng.RNG // reseeded at every chunk
	out *Collection
	// spawn runs this worker's share of the batch; built once so that
	// launching the goroutine allocates nothing.
	spawn func()
}

// interruptStride is the chunk size: the number of consecutive RR sets
// drawn from one chunk-keyed substream, and so the number of draws
// between interrupt polls — frequent enough that a cancelled campaign or
// an exceeded cell budget stops within milliseconds, rare enough that the
// poll (often an atomic load plus a clock read) and the per-chunk reseed
// never show up in sampling throughput.
const interruptStride = 64

// SetInterrupt installs (or, with nil, removes) the cancellation poll for
// future batches.
func (p *samplerPool) SetInterrupt(f func() error) { p.interrupt = f }

// Visits returns the cumulative number of node visits (nodes appended to
// RR sets) across all draws by this pool's workers.
func (p *samplerPool) Visits() uint64 {
	var v uint64
	for _, wk := range p.workers {
		v += wk.s.visits
	}
	return v
}

// EdgeTouches returns the cumulative number of in-adjacency entries read
// across all draws by this pool's workers.
func (p *samplerPool) EdgeTouches() uint64 {
	var v uint64
	for _, wk := range p.workers {
		v += wk.s.edgeTouches
	}
	return v
}

// Err reports whether the most recent AppendParallel batch was aborted by
// the interrupt, and with what error. It is reset at the start of every
// batch.
func (p *samplerPool) Err() error { return p.err }

// grow ensures at least n workers exist.
func (p *samplerPool) grow(n int) {
	for w := len(p.workers); w < n; w++ {
		// out is only appended to and spliced, never indexed, so its
		// node-ID space is irrelevant.
		wk := &poolWorker{s: &sampler{model: p.model}, out: NewCollection(0)}
		wk.spawn = func() {
			defer p.wg.Done()
			p.work(w, wk.out)
		}
		p.workers = append(p.workers, wk)
	}
}

// AppendParallel draws count RR sets on res using up to workers goroutines
// and appends them to c. The batch takes one key from parent (advancing it
// exactly as one Uint64 draw) and is appendChunks from chunk 0 at that
// key, so the sets are a deterministic function of (parent state, count)
// alone — the worker count only decides which worker draws which
// contiguous run of chunks, never what a chunk contains.
func (p *samplerPool) AppendParallel(c *Collection, res *graph.Residual, parent *rng.RNG, count, workers int) {
	p.appendChunks(c, res, parent.Uint64(), 0, count, workers)
}

// appendChunks draws count RR sets on res and appends them to c: chunk
// chunk0+j holds the interruptStride consecutive sets drawn from the
// substream keyed by Mix64(key + (chunk0+j)·Golden), and chunks are
// appended in index order. Base growth continues a key's chunk sequence
// this way; AppendParallel starts one at chunk 0.
//
// workers <= 0 means GOMAXPROCS. The residual view is shared read-only;
// callers must not mutate it during generation. An aborted batch (see
// SetInterrupt and Err) leaves c holding an arbitrary prefix of it; the
// caller must treat the collection as void.
func (p *samplerPool) appendChunks(c *Collection, res *graph.Residual, key, chunk0 uint64, count, workers int) {
	p.err = nil
	p.stop.Store(false)
	p.res, p.key, p.chunk0, p.count = res, key, chunk0, count
	chunks := (count + interruptStride - 1) / interruptStride
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p.nw = max(1, min(workers, chunks))
	p.grow(p.nw)
	c.noteVersion(res.Version())
	for _, wk := range p.workers[1:p.nw] {
		wk.out.Reset()
		p.wg.Add(1)
		go wk.spawn()
	}
	p.work(0, c)
	p.wg.Wait()
	if p.stop.Load() {
		p.err = p.stopErr
		return
	}
	for _, wk := range p.workers[1:p.nw] {
		c.appendRange(wk.out, 0, wk.out.Len())
	}
}

// work draws worker w's contiguous run of chunks into dst.
func (p *samplerPool) work(w int, dst *Collection) {
	wk := p.workers[w]
	wk.s.bind(p.res, &wk.r)
	chunks := (p.count + interruptStride - 1) / interruptStride
	for k := w * chunks / p.nw; k < (w+1)*chunks/p.nw; k++ {
		if p.interrupt != nil {
			if p.stop.Load() {
				return
			}
			if err := p.interrupt(); err != nil {
				if p.stop.CompareAndSwap(false, true) {
					p.stopErr = err
				}
				return
			}
		}
		wk.r.Reseed(rng.Mix64(p.key + (p.chunk0+uint64(k))*rng.Golden))
		wk.s.appendSets(dst, min(interruptStride, p.count-k*interruptStride))
	}
}
