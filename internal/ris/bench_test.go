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
// kernel AppendTo runs (appendFastIC under IC), in batches of 4096 into a
// warm collection; the reported rr/s metric is sets per second.
func benchmarkDraw(b *testing.B, model cascade.Model) {
	const batch = 4096
	g := benchGraph(b)
	res := graph.NewResidual(g)
	s := NewSampler(res, model, rng.New(1))
	c := NewCollection(res.FullN())
	var nodes int64
	b.ResetTimer()
	for done := 0; done < b.N; done += batch {
		c.Reset()
		n := min(batch, b.N-done)
		s.AppendTo(c, n)
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
	pool := NewSamplerPool(cascade.IC)
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

// benchmarkDrop times one drop pass over a nethept-s-sized pool: 25k RR
// sets drawn on g (the paper-scale nethept-s graph), every set folded
// into an attached Coverage as the adaptive stepper's looks leave it.
// drop runs the pass under test on a fresh copy of the pool; the copy is
// made off the clock.
func benchmarkDrop(b *testing.B, g *graph.Graph, drop func(c *Collection)) {
	const sets = 25000
	res := graph.NewResidual(g)
	pool := NewSamplerPool(cascade.IC)
	base := NewCollection(res.FullN())
	pool.AppendParallel(base, res, rng.New(3), sets, 1)
	st := base.State()
	c := NewCollection(res.FullN())
	cov := newCoverage(c)
	kept := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := c.RestoreState(st); err != nil {
			b.Fatal(err)
		}
		cov.Update()
		b.StartTimer()
		drop(c)
		kept += c.Len()
	}
	b.ReportMetric(float64(len(st.Arena)), "entries")
	b.ReportMetric(float64(sets)-float64(kept)/float64(b.N), "dropped/op")
}

// BenchmarkFilter: Filter after 100 nodes were removed since the pool was
// drawn — the per-round Sync of the adaptive loop, where an observed
// cascade kills a handful of nodes and a few percent of the pool.
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
// rate of the churn benchmark workload.
func BenchmarkInvalidateTouching(b *testing.B) {
	g := benchGraph(b)
	_, dres, err := g.ApplyDelta(gen.ChurnDeltas(g, 0.001, rng.New(5)))
	if err != nil {
		b.Fatal(err)
	}
	benchmarkDrop(b, g, func(c *Collection) { c.InvalidateTouching(dres.Touched) })
}
