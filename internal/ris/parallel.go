package ris

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/cascade"
	"repro/internal/graph"
	"repro/internal/rng"
)

// chunk is one worker's output: a local arena with per-set lengths,
// spliced into the destination collection in worker order.
type chunk struct {
	arena []graph.NodeID
	lens  []int32
	roots []graph.NodeID
}

// SamplerPool owns persistent per-worker samplers for bulk RR generation.
// Worker scratch (visited marks, traversal stacks, output chunks) and RNG
// stream objects survive across batches, so a warm pool draws a whole
// attempt without allocating — unlike the one-sampler-per-call pattern,
// which paid a fresh O(N) visited array per worker per batch. A pool is
// owned by one run (an adaptive algorithm, an oracle, an IMM invocation)
// and is not safe for concurrent use; its workers synchronize internally.
type SamplerPool struct {
	model    cascade.Model
	samplers []*Sampler
	streams  []*rng.RNG
	chunks   []chunk
	quota    []int

	// interrupt, when non-nil, is polled during generation (every
	// interruptStride draws per worker); a non-nil return aborts the batch
	// mid-draw-loop, leaving the destination collection untouched (multi-
	// worker) or short (single worker), and is reported by Err until the
	// next batch. The function must be safe for concurrent use — every
	// worker calls it.
	interrupt func() error
	err       error
}

// interruptStride is how many RR draws a worker performs between interrupt
// polls: frequent enough that a cancelled campaign or an exceeded cell
// budget stops within milliseconds, rare enough that the poll (often an
// atomic load plus a clock read) never shows up in sampling throughput.
const interruptStride = 64

// SetInterrupt installs (or, with nil, removes) the cancellation poll for
// future batches. With no interrupt installed the draw loops are exactly
// the historical ones.
func (p *SamplerPool) SetInterrupt(f func() error) { p.interrupt = f }

// Visits returns the cumulative number of node visits (nodes appended to
// RR sets) across all draws by this pool's workers.
// With EdgeTouches it prices sampling in memory traffic: a visit costs
// one 16-byte metadata load plus bookkeeping, an edge touch one 4-byte
// adjacency read.
func (p *SamplerPool) Visits() uint64 {
	var v uint64
	for _, s := range p.samplers {
		v += s.visits
	}
	return v
}

// EdgeTouches returns the cumulative number of in-adjacency entries read
// across all draws by this pool's workers.
func (p *SamplerPool) EdgeTouches() uint64 {
	var v uint64
	for _, s := range p.samplers {
		v += s.edgeTouches
	}
	return v
}

// ResetStats zeroes the cumulative visit/edge-touch counters.
func (p *SamplerPool) ResetStats() {
	for _, s := range p.samplers {
		s.visits, s.edgeTouches = 0, 0
	}
}

// Err reports whether the most recent AppendParallel batch was aborted by
// the interrupt, and with what error. It is reset at the start of every
// batch.
func (p *SamplerPool) Err() error { return p.err }

// NewSamplerPool creates an empty pool drawing under the given model.
// Workers are materialized lazily on first use.
func NewSamplerPool(model cascade.Model) *SamplerPool {
	return &SamplerPool{model: model}
}

// grow ensures at least workers samplers, streams and chunks exist.
func (p *SamplerPool) grow(workers int) {
	for len(p.samplers) < workers {
		p.samplers = append(p.samplers, &Sampler{model: p.model})
		p.streams = append(p.streams, &rng.RNG{}) // reseeded before every use
	}
	if len(p.chunks) < workers {
		p.chunks = append(p.chunks, make([]chunk, workers-len(p.chunks))...)
	}
}

// AppendParallel draws count RR sets on res using up to workers goroutines
// and appends them to c. Each worker is reseeded with a Split() substream
// of parent, so the appended sets are a deterministic function of (parent
// state, count, workers) regardless of scheduling; chunks merge in worker
// order, keeping the arena layout reproducible too.
//
// workers <= 0 means GOMAXPROCS. The residual view is shared read-only;
// callers must not mutate it during generation.
func (p *SamplerPool) AppendParallel(c *Collection, res *graph.Residual, parent *rng.RNG, count, workers int) {
	p.err = nil
	if p.interrupt != nil {
		if err := p.interrupt(); err != nil {
			p.err = err
			return
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > count {
		workers = count
	}
	if workers < 1 {
		workers = 1
	}
	p.grow(workers)
	if workers == 1 {
		parent.SplitTo(p.streams[0])
		s := p.samplers[0]
		s.bind(res, p.streams[0])
		if p.interrupt == nil {
			s.AppendTo(c, count)
			return
		}
		// Chunked draws poll the interrupt between strides. The RNG stream
		// and the appended sets are identical to one AppendTo(c, count)
		// call — chunking only splits the loop, and the per-chunk
		// noteRequested calls sum to count.
		for done := 0; done < count; {
			n := interruptStride
			if rest := count - done; rest < n {
				n = rest
			}
			before := c.Len()
			s.AppendTo(c, n)
			done += n
			if c.Len()-before < n {
				return // empty residual; AppendTo gave up early
			}
			if done < count {
				if err := p.interrupt(); err != nil {
					p.err = err
					return
				}
			}
		}
		return
	}
	// Deterministic per-worker quotas and streams.
	p.quota = p.quota[:0]
	for i := 0; i < workers; i++ {
		q := count / workers
		if i < count%workers {
			q++
		}
		p.quota = append(p.quota, q)
		parent.SplitTo(p.streams[i])
	}
	// Cancellation fan-in: the first worker whose interrupt poll fails
	// records the error and raises the stop flag; every worker checks the
	// flag per draw (one atomic load) and the function itself only once per
	// interruptStride draws.
	var stop atomic.Bool
	var stopOnce sync.Once
	var stopErr error
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := p.samplers[w]
			s.bind(res, p.streams[w])
			ck := &p.chunks[w]
			ck.arena = ck.arena[:0]
			ck.lens = ck.lens[:0]
			ck.roots = ck.roots[:0]
			for i := 0; i < p.quota[w]; i++ {
				if p.interrupt != nil {
					if stop.Load() {
						return
					}
					if i%interruptStride == interruptStride-1 {
						if err := p.interrupt(); err != nil {
							stopOnce.Do(func() { stopErr = err })
							stop.Store(true)
							return
						}
					}
				}
				root, ok := s.drawTouched()
				if !ok {
					break
				}
				ck.arena = append(ck.arena, s.touched...)
				ck.lens = append(ck.lens, int32(len(s.touched)))
				ck.roots = append(ck.roots, root)
			}
		}(w)
	}
	wg.Wait()
	if stop.Load() {
		// Aborted: leave c untouched so the caller sees a consistent (if
		// short) collection; the error makes the whole batch void.
		p.err = stopErr
		return
	}
	c.noteRequested(count)
	c.noteVersion(res.Version())
	for w := 0; w < workers; w++ {
		ck := &p.chunks[w]
		c.appendBulk(ck.arena, ck.lens, ck.roots)
	}
}

// Generate draws theta RR sets into a new Collection through the pool.
func (p *SamplerPool) Generate(res *graph.Residual, parent *rng.RNG, theta, workers int) *Collection {
	c := NewCollection(res.FullN())
	p.AppendParallel(c, res, parent, theta, workers)
	return c
}

// AppendParallel is the pool-free convenience form: it draws through a
// throwaway SamplerPool, preserving the historical free-function contract
// (and its per-call scratch cost). Long-lived callers should hold a
// SamplerPool instead.
func AppendParallel(c *Collection, res *graph.Residual, model cascade.Model, parent *rng.RNG, count, workers int) {
	NewSamplerPool(model).AppendParallel(c, res, parent, count, workers)
}

// GenerateParallel draws theta RR sets into a new Collection using up to
// workers goroutines. See SamplerPool.AppendParallel for the determinism
// contract.
func GenerateParallel(res *graph.Residual, model cascade.Model, parent *rng.RNG, theta, workers int) *Collection {
	c := NewCollection(res.FullN())
	AppendParallel(c, res, model, parent, theta, workers)
	return c
}
