package ris

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/cascade"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// wcTestGraph is a weighted-cascade preferential-attachment graph — the
// paper's standard weighting, which compresses to per-node in-probability
// storage and so exercises every fast path.
func wcTestGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := gen.Generate(gen.Config{Model: gen.PrefAttach, N: 300, AvgDeg: 5, Directed: true, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	if !g.InUniform() {
		t.Fatal("weighted-cascade test graph did not compress")
	}
	return g
}

// sampleHistograms draws theta RR sets through the bulk kernel appendSets
// runs (appendFastIC under IC on compressed graphs) — or, with ref, the
// per-edge reference traversal — and returns the set-size histogram
// (sizes above maxSize pooled into the last bin) plus per-node membership
// counts.
func sampleHistograms(g *graph.Graph, model cascade.Model, seed uint64, theta, maxSize int, ref bool) ([]float64, []float64) {
	s := newSampler(graph.NewResidual(g), model, rng.New(seed))
	s.noFast = ref
	c := NewCollection(g.N())
	s.appendTo(c, theta)
	if c.Len() != theta {
		panic("draw failed")
	}
	sizes := make([]float64, maxSize+1)
	members := make([]float64, g.N())
	for i := 0; i < theta; i++ {
		set := c.SetNodes(i)
		sizes[min(len(set), maxSize)]++
		for _, u := range set {
			members[u]++
		}
	}
	return sizes, members
}

// chiSquareTwoSample computes the two-sample chi-square statistic over two
// equal-size histograms, merging bins whose combined count is below
// minCount into a pooled tail. Returns the statistic and degrees of
// freedom used.
func chiSquareTwoSample(a, b []float64, minCount float64) (float64, int) {
	stat := 0.0
	df := -1
	poolA, poolB := 0.0, 0.0
	add := func(x, y float64) {
		if s := x + y; s > 0 {
			stat += (x - y) * (x - y) / s
			df++
		}
	}
	for i := range a {
		if a[i]+b[i] < minCount {
			poolA += a[i]
			poolB += b[i]
			continue
		}
		add(a[i], b[i])
	}
	add(poolA, poolB)
	return stat, df
}

// TestFastICMatchesReferenceChiSquare: with a fixed seed, the production
// IC kernel (appendFastIC: count tables, geometric jumps) and the per-edge
// reference path must produce the same RR-set size distribution
// (two-sample chi-square) and the same per-node membership marginals on a
// weighted-cascade graph.
func TestFastICMatchesReferenceChiSquare(t *testing.T) {
	g := wcTestGraph(t)
	const theta = 120000
	fastSizes, fastMem := sampleHistograms(g, cascade.IC, 101, theta, 20, false)
	refSizes, refMem := sampleHistograms(g, cascade.IC, 202, theta, 20, true)

	stat, df := chiSquareTwoSample(fastSizes, refSizes, 10)
	// Critical value at p=0.001 for df<=20 is < 46; a real distribution
	// mismatch (e.g. an off-by-one in the success count) lands far above.
	if stat > 46 {
		t.Fatalf("size-distribution chi-square %.1f (df=%d): fast %v vs ref %v",
			stat, df, fastSizes, refSizes)
	}
	for u := range fastMem {
		pf := fastMem[u] / theta
		pr := refMem[u] / theta
		// 5-sigma binomial tolerance on the pooled estimate.
		p := (pf + pr) / 2
		tol := 5 * math.Sqrt(2*p*(1-p)/theta)
		if math.Abs(pf-pr) > tol+1e-9 {
			t.Fatalf("node %d membership %v (fast) vs %v (ref), tol %v", u, pf, pr, tol)
		}
	}
}

// TestFastLTMatchesReferenceChiSquare is the LT analogue: the O(1)
// inverted pick against the linear prefix scan.
func TestFastLTMatchesReferenceChiSquare(t *testing.T) {
	g := wcTestGraph(t)
	const theta = 120000
	fastSizes, fastMem := sampleHistograms(g, cascade.LT, 303, theta, 20, false)
	refSizes, refMem := sampleHistograms(g, cascade.LT, 404, theta, 20, true)

	stat, df := chiSquareTwoSample(fastSizes, refSizes, 10)
	if stat > 46 {
		t.Fatalf("LT size-distribution chi-square %.1f (df=%d)", stat, df)
	}
	for u := range fastMem {
		pf := fastMem[u] / theta
		pr := refMem[u] / theta
		p := (pf + pr) / 2
		tol := 5 * math.Sqrt(2*p*(1-p)/theta)
		if math.Abs(pf-pr) > tol+1e-9 {
			t.Fatalf("node %d LT membership %v (fast) vs %v (ref), tol %v", u, pf, pr, tol)
		}
	}
}

// TestTrivalencyFallbackIdentical: on a mixed in-probability graph the
// sampler must take the per-edge path, byte-identical to the reference
// sampler — the fallback is not merely equivalent but the same code.
func TestTrivalencyFallbackIdentical(t *testing.T) {
	b := graph.NewBuilder(50, true)
	r := rng.New(5)
	for i := 0; i < 200; i++ {
		u := graph.NodeID(r.Intn(50))
		v := graph.NodeID(r.Intn(50))
		if u == v {
			continue
		}
		_ = b.AddEdge(u, v, [3]float64{0.4, 0.2, 0.1}[r.Intn(3)])
	}
	b.Dedup()
	g := b.Build()
	if g.InUniform() {
		t.Fatal("trivalency graph unexpectedly compressed")
	}
	def := newSampler(graph.NewResidual(g), cascade.IC, rng.New(77))
	ref := newSampler(graph.NewResidual(g), cascade.IC, rng.New(77))
	ref.noFast = true
	for i := 0; i < 500; i++ {
		a, b := def.draw(), ref.draw()
		if a.Root != b.Root || len(a.Nodes) != len(b.Nodes) {
			t.Fatalf("draw %d diverged: %+v vs %+v", i, a, b)
		}
		for j := range a.Nodes {
			if a.Nodes[j] != b.Nodes[j] {
				t.Fatalf("draw %d node %d diverged", i, j)
			}
		}
	}
}

// sameSets fails unless a and b hold identical sets in identical order.
func sameSets(t *testing.T, where string, a, b *Collection) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: %d vs %d sets", where, a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		na, nb := a.SetNodes(i), b.SetNodes(i)
		if a.Root(i) != b.Root(i) || len(na) != len(nb) {
			t.Fatalf("%s: set %d differs: root %d/%d, size %d/%d", where, i, a.Root(i), b.Root(i), len(na), len(nb))
		}
		for j := range na {
			if na[j] != nb[j] {
				t.Fatalf("%s: set %d node %d differs", where, i, j)
			}
		}
	}
}

// TestPoolMatchesFreeFunctions: a pool kept warm across rounds of residual
// removals draws exactly what a fresh pool draws from the same seed.
func TestPoolMatchesFreeFunctions(t *testing.T) {
	g := wcTestGraph(t)
	pool := newSamplerPool(cascade.IC)
	for _, workers := range []int{1, 4} {
		resA := graph.NewResidual(g)
		resB := graph.NewResidual(g)
		for round := 0; round < 3; round++ {
			a := newSamplerPool(cascade.IC).generate(resA, rng.New(uint64(round)+60), 700, workers)
			b := pool.generate(resB, rng.New(uint64(round)+60), 700, workers)
			sameSets(t, fmt.Sprintf("round %d workers %d", round, workers), a, b)
			resA.Remove(graph.NodeID(round * 7))
			resB.Remove(graph.NodeID(round * 7))
		}
	}
}

// TestAppendParallelWorkerCountIndependent: the sets a batch appends are a
// function of (parent state, count) only. Every worker count yields the
// same collection — and the same capacity-based Bytes — through a first
// batch, a top-up after Filter and a top-up after InvalidateTouching, on
// one warm pool; and chunk k of the first batch is exactly the
// interruptStride sets a bare sampler draws from Mix64(key + k·Golden).
func TestAppendParallelWorkerCountIndependent(t *testing.T) {
	g := wcTestGraph(t)
	for _, model := range []cascade.Model{cascade.IC, cascade.LT} {
		pool := newSamplerPool(model)
		for _, count := range []int{1, 63, 64, 65, 1000} {
			var want []*Collection
			var wantBytes int64
			for _, workers := range []int{1, 2, 3, 4, 7} {
				res := graph.NewResidual(g)
				parent := rng.New(uint64(count) + 60)
				c := NewCollection(res.FullN())
				var got []*Collection
				snap := func() {
					cp := NewCollection(c.n)
					cp.appendBulk(c, 0)
					got = append(got, cp)
				}
				pool.AppendParallel(c, res, parent, count, workers)
				snap()
				res.Remove(graph.NodeID(count % 300))
				c.Filter(res)
				pool.AppendParallel(c, res, parent, count, workers)
				snap()
				c.InvalidateTouching([]graph.NodeID{3, 17, graph.NodeID(count % 251)})
				pool.AppendParallel(c, res, parent, count, workers)
				snap()
				if want == nil {
					want, wantBytes = got, c.Bytes()
					continue
				}
				if c.Bytes() != wantBytes {
					t.Fatalf("%v count %d workers %d: %d bytes, want %d", model, count, workers, c.Bytes(), wantBytes)
				}
				for i := range got {
					sameSets(t, fmt.Sprintf("%v count %d workers %d batch %d", model, count, workers, i), want[i], got[i])
				}
			}

			key := rng.New(uint64(count) + 60).Uint64()
			ref := NewCollection(g.N())
			s := newSampler(graph.NewResidual(g), model, &rng.RNG{})
			for k := 0; k*interruptStride < count; k++ {
				s.r.Reseed(rng.Mix64(key + uint64(k)*rng.Golden))
				s.appendTo(ref, min(interruptStride, count-k*interruptStride))
			}
			sameSets(t, fmt.Sprintf("%v count %d chunk-keyed reference", model, count), ref, want[0])
		}
	}
}

// TestAppendParallelInterrupt: an interrupt that never fires leaves the
// draws unchanged, and one that fires mid-batch voids the batch through
// Err at every worker count.
func TestAppendParallelInterrupt(t *testing.T) {
	g := wcTestGraph(t)
	res := graph.NewResidual(g)
	want := newSamplerPool(cascade.IC).generate(res, rng.New(8), 1000, 1)
	stop := errors.New("stop")
	for _, workers := range []int{1, 3} {
		pool := newSamplerPool(cascade.IC)
		pool.SetInterrupt(func() error { return nil })
		sameSets(t, fmt.Sprintf("workers %d, idle interrupt", workers), want, pool.generate(res, rng.New(8), 1000, workers))

		var polls atomic.Int32
		pool.SetInterrupt(func() error {
			if polls.Add(1) > 4 {
				return stop
			}
			return nil
		})
		pool.generate(res, rng.New(8), 1000, workers)
		if !errors.Is(pool.Err(), stop) {
			t.Fatalf("workers %d: Err = %v after an interrupted batch", workers, pool.Err())
		}
		pool.SetInterrupt(nil)
		sameSets(t, fmt.Sprintf("workers %d, after abort", workers), want, pool.generate(res, rng.New(8), 1000, workers))
		if pool.Err() != nil {
			t.Fatalf("workers %d: Err = %v not reset", workers, pool.Err())
		}
	}
}

// TestPoolConcurrentWorkersSafe drives a pool with several workers across
// residual versions; `go test -race ./internal/ris/...` in CI guards the
// worker scratch against sharing bugs.
func TestPoolConcurrentWorkersSafe(t *testing.T) {
	g := wcTestGraph(t)
	res := graph.NewResidual(g)
	pool := newSamplerPool(cascade.IC)
	parent := rng.New(9)
	c := NewCollection(res.FullN())
	for round := 0; round < 6; round++ {
		pool.AppendParallel(c, res, parent, 400, 4)
		for i := 0; i < c.Len(); i++ {
			for _, u := range c.SetNodes(i) {
				if !res.Alive(u) && round == 0 {
					t.Fatalf("dead node %d in a set on a full residual", u)
				}
			}
		}
		res.Remove(graph.NodeID(round * 11))
		c.Filter(res)
	}
}

// TestAppendParallelWarmNoAllocs asserts the pool's steady state: after a
// warm-up attempt, regenerating the same batch through the pool performs
// zero allocations — no fresh samplers, visited arrays, RNG streams,
// goroutine closures, or arena growth per attempt — at one worker and at
// two (goroutines plus an in-order splice).
func TestAppendParallelWarmNoAllocs(t *testing.T) {
	g := wcTestGraph(t)
	res := graph.NewResidual(g)
	for _, workers := range []int{1, 2} {
		pool := newSamplerPool(cascade.IC)
		parent := rng.New(5)
		c := NewCollection(res.FullN())
		pool.AppendParallel(c, res, parent, 2000, workers) // warm-up attempt
		avg := testing.AllocsPerRun(20, func() {
			parent.Reseed(5) // identical draws each attempt
			c.Reset()
			pool.AppendParallel(c, res, parent, 2000, workers)
		})
		if avg != 0 {
			t.Fatalf("warm AppendParallel (workers=%d) allocates %.1f per attempt, want 0", workers, avg)
		}
	}
}
