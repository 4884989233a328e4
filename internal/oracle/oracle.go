package oracle

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/cascade"
	"repro/internal/graph"
	"repro/internal/ris"
	"repro/internal/rng"
)

// Oracle answers expected-spread queries on a residual view.
type Oracle interface {
	// ExpectedSpread returns (an estimate of) E[I_{G_i}(S)] where G_i is
	// the residual view res and dead seeds contribute nothing.
	ExpectedSpread(res *graph.Residual, seeds []graph.NodeID) float64
}

// Exact enumerates every realization of the underlying graph. Cost is
// O(2^m · (n+m)); the constructor refuses graphs beyond maxEdges.
type Exact struct {
	g     *graph.Graph
	edges []graph.Edge
}

// MaxExactEdges bounds the edge count Exact accepts (2^20 worlds).
const MaxExactEdges = 20

// NewExact builds an exact oracle for g.
func NewExact(g *graph.Graph) (*Exact, error) {
	if g.M() > MaxExactEdges {
		return nil, fmt.Errorf("oracle: exact enumeration infeasible for m=%d > %d", g.M(), MaxExactEdges)
	}
	return &Exact{g: g, edges: g.Edges()}, nil
}

// ExpectedSpread enumerates all live-edge subsets, weighting each world by
// its probability.
func (o *Exact) ExpectedSpread(res *graph.Residual, seeds []graph.NodeID) float64 {
	if res.Graph() != o.g {
		panic("oracle: residual belongs to a different graph")
	}
	m := len(o.edges)
	total := 0.0
	live := make([]graph.Edge, 0, m)
	for mask := 0; mask < 1<<m; mask++ {
		p := 1.0
		live = live[:0]
		for i, e := range o.edges {
			if mask&(1<<i) != 0 {
				p *= e.P
				live = append(live, e)
			} else {
				p *= 1 - e.P
			}
		}
		if p == 0 {
			continue
		}
		rz := cascade.FromLiveEdges(o.g, live)
		total += p * float64(cascade.SpreadOn(rz, res, seeds))
	}
	return total
}

// MonteCarlo estimates spreads by forward simulation with memoization.
// Queries with the same (residual version, seed set) hit the cache, which
// matters because double greedy asks about overlapping sets repeatedly.
type MonteCarlo struct {
	model cascade.Model
	reps  int
	seed  uint64
	cache map[string]float64
}

// NewMonteCarlo builds an MC oracle with the given replication count.
// The oracle derives an independent RNG stream per query from seed, so
// answers are deterministic functions of (seed, query).
func NewMonteCarlo(model cascade.Model, reps int, seed uint64) *MonteCarlo {
	if reps <= 0 {
		panic("oracle: reps must be positive")
	}
	return &MonteCarlo{model: model, reps: reps, seed: seed, cache: make(map[string]float64)}
}

func cacheKey(version int64, seeds []graph.NodeID) string {
	s := make([]int, len(seeds))
	for i, u := range seeds {
		s[i] = int(u)
	}
	sort.Ints(s)
	var b strings.Builder
	fmt.Fprintf(&b, "v%d:", version)
	for _, u := range s {
		fmt.Fprintf(&b, "%d,", u)
	}
	return b.String()
}

// ExpectedSpread estimates E[I_{G_i}(S)] with o.reps simulations.
func (o *MonteCarlo) ExpectedSpread(res *graph.Residual, seeds []graph.NodeID) float64 {
	key := cacheKey(res.Version(), seeds)
	if v, ok := o.cache[key]; ok {
		return v
	}
	// Derive a per-query stream: deterministic, but independent across
	// distinct queries.
	h := o.seed
	for _, c := range key {
		h = h*1099511628211 + uint64(c)
	}
	v := cascade.MonteCarloSpreadOn(res, o.model, seeds, o.reps, rng.New(h))
	o.cache[key] = v
	return v
}

// RIS estimates spreads from an RR-set collection maintained per residual
// version. theta controls the sample size. When the residual mutates, the
// cached collection is validity-filtered (ris.Collection.Filter) and only
// the shortfall is regenerated, instead of discarding every set. The
// draw/filter/top-up cycle and its accounting run through the shared
// ris.Batcher — the same batch loop the adaptive sampling stepper and
// IMM's θ search use.
type RIS struct {
	model cascade.Model
	theta int
	r     *rng.RNG
	b     *ris.Batcher

	cachedVersion int64
	cachedAlive   int
	workers       int
	reuse         bool
	// err is the first refresh failure (an interrupt aborting a batch
	// mid-draw). The Oracle interface cannot surface it per query, so it is
	// sticky: once set, every answer is void and callers must check Err
	// after their query loop.
	err error
}

// NewRIS builds an RIS-backed oracle drawing theta RR sets per residual
// version.
func NewRIS(model cascade.Model, theta int, r *rng.RNG) *RIS {
	if theta <= 0 {
		panic("oracle: theta must be positive")
	}
	b := ris.NewBatcher(model)
	b.SetReuse(false) // see SetReuse for why reuse is opt-in here
	return &RIS{model: model, theta: theta, r: r, b: b, cachedVersion: -1}
}

// ExpectedSpread estimates E[I_{G_i}(S)] = n_i · CovR(S)/θ.
func (o *RIS) ExpectedSpread(res *graph.Residual, seeds []graph.NodeID) float64 {
	o.Refresh(res)
	c := o.b.Collection()
	if c.Len() == 0 {
		return 0
	}
	return ris.EstimateSpread(c.Cov(seeds), c.Len(), o.cachedAlive)
}

// SetWorkers sets the parallelism of future refreshes and batch queries;
// n <= 0 (the default) means GOMAXPROCS. Answers do not depend on it: the
// RR sets are a function of the oracle's stream alone (see
// ris.SamplerPool.AppendParallel), and SingleSpreads gives identical
// floats at any n.
func (o *RIS) SetWorkers(n int) { o.workers = n }

// SingleSpreads estimates E[I_{G_i}({u})] for every u in nodes, writing
// the estimates into out (which must have len(nodes)). It is equivalent
// to calling ExpectedSpread on each singleton — identical floats — but a
// single-node coverage is an O(1) inverted-index lookup
// (CountContaining), so the batch is evaluated concurrently across the
// oracle's worker count after one Refresh. The adaptive greedy's
// per-round argmax over alive targets goes through here.
func (o *RIS) SingleSpreads(res *graph.Residual, nodes []graph.NodeID, out []float64) {
	if len(nodes) == 0 {
		return
	}
	o.Refresh(res)
	c := o.b.Collection()
	if c.Len() == 0 {
		for i := range out {
			out[i] = 0
		}
		return
	}
	c.BuildIndex(o.workers) // before the concurrent reads below
	theta, alive := c.Len(), o.cachedAlive
	workers := o.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(nodes) {
		workers = len(nodes)
	}
	if workers <= 1 {
		for i, u := range nodes {
			out[i] = ris.EstimateSpread(c.CountContaining(u), theta, alive)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (len(nodes) + workers - 1) / workers
	for lo := 0; lo < len(nodes); lo += chunk {
		hi := lo + chunk
		if hi > len(nodes) {
			hi = len(nodes)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				out[i] = ris.EstimateSpread(c.CountContaining(nodes[i]), theta, alive)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// SetReuse enables cross-version RR-set reuse: on a residual change,
// Refresh keeps the cached sets still valid under the new residual
// (ris.Collection.Filter) and draws only the shortfall.
//
// Off by default because the kept sets are biased (see
// ris.Collection.Filter): each is an RR set of the old residual
// conditioned on avoiding the removed nodes, which under-represents sets
// holding nodes with in-edges from removed nodes, and roots whose sets
// tend to survive are over-represented versus the uniform root draw the
// estimator assumes. The bias grows with how much of the pool the
// deletion invalidated — small for the few deletions of one adaptive
// round, extreme on adversarial graphs (deleting a chain's middle node
// leaves only single-node sets). Callers accepting that trade (ADG on
// large graphs) opt in explicitly.
func (o *RIS) SetReuse(on bool) {
	o.reuse = on
	o.b.SetReuse(on)
}

// SetInterrupt installs a cancellation poll on the oracle's batcher; a
// refresh aborted mid-batch voids the oracle (see Err). nil removes it.
func (o *RIS) SetInterrupt(f func() error) { o.b.SetInterrupt(f) }

// Err reports the first refresh abort (nil while the oracle is healthy).
// Answers given after Err becomes non-nil are meaningless; drivers poll it
// once per round, after their query batch.
func (o *RIS) Err() error { return o.err }

// Refresh brings the cached RR collection up to date with the residual's
// version. On the first call it generates θ sets from scratch; afterwards
// it compacts the collection to the sets still valid on the mutated
// residual and draws only the shortfall, so sets that avoid every deleted
// node are reused across rounds instead of being discarded. Exposed so
// adaptive drivers can force the per-round resampling (and account for
// it) at a well-defined point.
func (o *RIS) Refresh(res *graph.Residual) {
	if o.err != nil {
		return
	}
	if o.cachedVersion == res.Version() && o.b.Collection() != nil {
		return
	}
	o.b.Sync(res) // filter (reuse) or reset (default)
	if _, err := o.b.GrowTo(res, o.r, o.theta, o.workers); err != nil {
		o.err = err
		return
	}
	o.cachedVersion = res.Version()
	o.cachedAlive = res.N()
}

// InvalidateTopology drops the cached RR sets containing any node touched
// by a topology delta (the To-endpoints of changed edges — see
// graph.ApplyDelta) and voids the version cache, forcing the next query to
// refresh. A reverse walk that never visits a touched node never examines
// a changed edge, so every surviving set is a valid RR set of the mutated
// graph: with reuse on, the following Refresh keeps the survivors and
// draws only the shortfall; with reuse off it regenerates from scratch as
// always. Consumes no randomness, so the oracle's stream stays aligned
// with an unmutated run up to the first post-delta refresh.
func (o *RIS) InvalidateTopology(touched []graph.NodeID) {
	o.b.Invalidate(touched)
	o.cachedVersion = -1
}

// RISState is the serializable snapshot of a RIS oracle: its RNG stream,
// version cache, and batcher (collection + accounting). Configuration
// (theta, workers, reuse) is captured too so a restored oracle resumes
// with the original's settings; the worker count is parallelism only and
// does not shape the draws.
type RISState struct {
	RNGState      uint64
	RNGInc        uint64
	Theta         int
	Workers       int
	Reuse         bool
	CachedVersion int64
	CachedAlive   int
	Batcher       ris.BatcherState
}

// State captures the oracle's snapshot for checkpointing. Only quiescent
// oracles (no query in flight) may be captured; the batcher part aliases
// the live RR collection (see ris.Collection.State) and is only valid
// until the oracle's next query or invalidation.
func (o *RIS) State() RISState {
	st := RISState{
		Theta:         o.theta,
		Workers:       o.workers,
		Reuse:         o.reuse,
		CachedVersion: o.cachedVersion,
		CachedAlive:   o.cachedAlive,
		Batcher:       o.b.State(),
	}
	st.RNGState, st.RNGInc = o.r.State()
	return st
}

// RestoreState overwrites the oracle with a captured snapshot. fullN is
// the indexed graph's node count (see ris.Batcher.RestoreState).
func (o *RIS) RestoreState(st RISState, fullN int) error {
	if st.Theta <= 0 {
		return fmt.Errorf("oracle: restore with theta %d", st.Theta)
	}
	o.theta = st.Theta
	o.workers = st.Workers
	o.SetReuse(st.Reuse)
	o.cachedVersion = st.CachedVersion
	o.cachedAlive = st.CachedAlive
	o.err = nil
	o.r.SetState(st.RNGState, st.RNGInc)
	return o.b.RestoreState(st.Batcher, fullN)
}

// Collection returns the RR collection backing the current residual
// version (nil before the first query).
func (o *RIS) Collection() *ris.Collection { return o.b.Collection() }

// TotalDrawn returns the RR sets generated across all refreshes.
func (o *RIS) TotalDrawn() int64 { return o.b.Drawn() }

// TotalRequested returns the RR sets requested from the generators across
// all refreshes; larger than TotalDrawn when generation hit an empty
// residual. Reused sets are not re-requested, so with reuse this is
// smaller than refreshes × θ.
func (o *RIS) TotalRequested() int64 { return o.b.Requested() }

// TotalReused returns the RR sets carried over across residual versions
// by validity filtering — draws the oracle avoided versus regenerating θ
// sets on every refresh.
func (o *RIS) TotalReused() int64 { return o.b.Reused() }

// PeakRRBytes returns the largest heap footprint the cached collection
// reached (ris.Collection.Bytes). Deterministic for a fixed seed.
func (o *RIS) PeakRRBytes() int64 { return o.b.PeakBytes() }

// SamplingNS returns the wall time spent inside RR generation across all
// refreshes, in nanoseconds.
func (o *RIS) SamplingNS() int64 { return o.b.SamplingNS() }

// TotalVisits and TotalEdgeTouches expose the sampler work counters
// accumulated across refreshes (see ris.Batcher.Visits / EdgeTouches).
func (o *RIS) TotalVisits() int64      { return o.b.Visits() }
func (o *RIS) TotalEdgeTouches() int64 { return o.b.EdgeTouches() }
