package ris

import (
	"testing"

	"repro/internal/cascade"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// benchGraph materializes the nethept-s stand-in at paper scale with the
// weighted-cascade weighting — the workload the paper's experiments (and
// the README performance table) are measured on.
func benchGraph(b *testing.B) *graph.Graph {
	return datasetGraph(b, "nethept-s")
}

// datasetGraph materializes any Table II stand-in at paper scale. The
// larger stand-ins (dblp-s) spill the CPU caches; nethept-s fits in L2
// and measures the small-graph regime.
func datasetGraph(b *testing.B, name string) *graph.Graph {
	b.Helper()
	spec, err := gen.Lookup(name)
	if err != nil {
		b.Fatal(err)
	}
	g, err := gen.Generate(spec.Config(1))
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// benchmarkDraw measures single-threaded RR-set draws through the bulk
// kernel appendSets runs (appendFastIC under IC), in batches of 4096 into a
// warm collection; the reported rr/s metric is sets per second.
func benchmarkDraw(b *testing.B, model cascade.Model) {
	const batch = 4096
	g := benchGraph(b)
	res := graph.NewResidual(g)
	s := newSampler(res, model, rng.New(1))
	c := NewCollection(res.FullN())
	var nodes int64
	b.ResetTimer()
	for done := 0; done < b.N; done += batch {
		c.Reset()
		n := min(batch, b.N-done)
		s.appendTo(c, n)
		if c.Len() != n {
			b.Fatal("draw failed on a live graph")
		}
		nodes += int64(len(c.arena))
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rr/s")
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/set")
}

func BenchmarkDrawIC(b *testing.B) { benchmarkDraw(b, cascade.IC) }
func BenchmarkDrawLT(b *testing.B) { benchmarkDraw(b, cascade.LT) }

// benchmarkAppendParallel measures one adaptive "attempt": generating a
// batch of RR sets into a collection with GOMAXPROCS workers, the
// configuration every algorithm in the repo uses. The pre-PR baseline for
// this workload (a fresh sampler and collection per attempt, per-edge
// coins) is recorded in the README performance table.
func benchmarkAppendParallel(b *testing.B, dataset string) {
	const batch = 20000
	g := datasetGraph(b, dataset)
	res := graph.NewResidual(g)
	parent := rng.New(2)
	pool := newSamplerPool(cascade.IC)
	c := NewCollection(res.FullN())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Reset()
		pool.AppendParallel(c, res, parent, batch, 0)
		if c.Len() != batch {
			b.Fatal("short generation")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "rr/s")
}

func BenchmarkAppendParallel(b *testing.B) { benchmarkAppendParallel(b, "nethept-s") }

// BenchmarkAppendParallelDBLP measures the cache-spilling regime (655K
// nodes, ~27MB of CSR+meta).
func BenchmarkAppendParallelDBLP(b *testing.B) { benchmarkAppendParallel(b, "dblp-s") }

// dropPool draws the pool the drop benchmarks start from: 25k RR sets on
// g (the paper-scale nethept-s graph), as one first look leaves them.
func dropPool(g *graph.Graph) *Collection {
	const sets = 25000
	res := graph.NewResidual(g)
	base := NewCollection(res.FullN())
	newSamplerPool(cascade.IC).AppendParallel(base, res, rng.New(3), sets, 1)
	return base
}

// benchmarkDrop times one drop pass over the dropPool pool, every set
// folded into an attached Coverage as the adaptive stepper's looks leave
// it. drop runs the pass under test on a fresh copy of the pool; the copy
// is made off the clock. A fresh copy has no drop index, so every pass
// timed here is a collection's first drop, which builds the index in one
// pass over the arena: this times a campaign's first Sync, not the later
// ones (BenchmarkSyncRounds times those).
func benchmarkDrop(b *testing.B, g *graph.Graph, drop func(c *Collection)) {
	pool := dropPool(g)
	sets := pool.Len()
	c := NewCollection(g.N())
	cov := newCoverage(c)
	kept := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copyLive(c, pool)
		cov.Update()
		b.StartTimer()
		drop(c)
		kept += c.Len()
	}
	b.ReportMetric(float64(len(pool.arena)), "entries")
	b.ReportMetric(float64(sets)-float64(kept)/float64(b.N), "dropped/op")
}

// BenchmarkFilter: Filter after 100 nodes were removed since the pool was
// drawn, on a pool that has dropped nothing before (see benchmarkDrop).
func BenchmarkFilter(b *testing.B) {
	g := benchGraph(b)
	res := graph.NewResidual(g)
	r := rng.New(4)
	for res.Version() < 100 {
		res.Remove(graph.NodeID(r.Intn(res.FullN())))
	}
	benchmarkDrop(b, g, func(c *Collection) { c.Filter(res) })
}

// BenchmarkInvalidateTouching: the drop pass after a 0.1% edge churn, the
// rate of the churn benchmark workload, on a pool that has dropped
// nothing before (see benchmarkDrop).
func BenchmarkInvalidateTouching(b *testing.B) {
	g := benchGraph(b)
	_, dres, err := g.ApplyDelta(gen.ChurnDeltas(g, 0.001, rng.New(5)))
	if err != nil {
		b.Fatal(err)
	}
	benchmarkDrop(b, g, func(c *Collection) { c.InvalidateTouching(dres.Touched) })
}

// BenchmarkSyncRounds times the adaptive round cycle on the dropPool
// pool: each op copies the pool onto a warm batcher (off the clock) and
// runs syncRounds rounds of — seed the best-covered alive node of 50
// random targets (a random alive node once none is left) and remove the
// nodes one sampled IC cascade activates, Sync, GrowTo back to the pool
// size, Count. The drops, the drop index's build
// and upkeep, compaction and the top-up draws are all timed, as a
// campaign pays for them. Every op replays the same rounds; one untimed
// op first grows the batcher's storage, so B/op is the steady state.
func BenchmarkSyncRounds(b *testing.B) {
	const syncRounds = 15
	g := benchGraph(b)
	pool := dropPool(g)
	target := pool.Len()
	bt := NewBatcher(cascade.IC)
	targets := make([]graph.NodeID, 50)
	pick := rng.New(8)
	for i := range targets {
		targets[i] = graph.NodeID(pick.Intn(g.N()))
	}
	bt.SetTargets(NewTargetIndex(g.N(), targets))
	dropped := 0
	op := func() {
		b.StopTimer()
		res := graph.NewResidual(g)
		copyLive(bt.ensureCol(g.N()), pool)
		bt.stats = Stats{}
		bt.Count(targets[0])
		r, parent := rng.New(6), rng.New(7)
		b.StartTimer()
		for range syncRounds {
			// Seed the best-covered alive target, as a policy would.
			seed := graph.NodeID(-1)
			for _, u := range targets {
				if res.Alive(u) && (seed < 0 || bt.Count(u) > bt.Count(seed)) {
					seed = u
				}
			}
			if seed < 0 {
				alive := res.AliveList()
				seed = alive[r.Intn(len(alive))]
			}
			cascade.Activate(cascade.Sample(g, cascade.IC, r), res, []graph.NodeID{seed})
			dropped += target - bt.Sync(res)
			if _, err := bt.GrowTo(res, parent, target, 1); err != nil {
				b.Fatal(err)
			}
			bt.Count(targets[0])
		}
	}
	op()
	dropped = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*syncRounds), "ns/round")
	b.ReportMetric(float64(dropped)/float64(b.N*syncRounds), "dropped/round")
}
