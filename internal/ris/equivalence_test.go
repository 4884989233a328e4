package ris

import (
	"math"
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

// sampleHistograms draws theta RR sets and returns the set-size histogram
// (sizes above maxSize pooled into the last bin) plus per-node membership
// counts.
func sampleHistograms(g *graph.Graph, model cascade.Model, seed uint64, theta, maxSize int, ref bool) ([]float64, []float64) {
	s := NewSampler(graph.NewResidual(g), model, rng.New(seed))
	s.noFast = ref
	sizes := make([]float64, maxSize+1)
	members := make([]float64, g.N())
	for i := 0; i < theta; i++ {
		root, ok := s.drawTouched()
		if !ok {
			panic("draw failed")
		}
		_ = root
		sz := len(s.touched)
		if sz > maxSize {
			sz = maxSize
		}
		sizes[sz]++
		for _, u := range s.touched {
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

// TestFastICMatchesReferenceChiSquare: with a fixed seed, the table/jump
// fast path and the per-edge reference path must produce the same RR-set
// size distribution (two-sample chi-square) and the same per-node
// membership marginals on a weighted-cascade graph.
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
	def := NewSampler(graph.NewResidual(g), cascade.IC, rng.New(77))
	ref := NewSampler(graph.NewResidual(g), cascade.IC, rng.New(77))
	ref.noFast = true
	for i := 0; i < 500; i++ {
		a, b := def.Draw(), ref.Draw()
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

// TestPoolMatchesFreeFunctions: a persistent pool must generate exactly
// the collections the free functions do, across residual versions.
func TestPoolMatchesFreeFunctions(t *testing.T) {
	g := wcTestGraph(t)
	pool := NewSamplerPool(cascade.IC)
	for _, workers := range []int{1, 4} {
		resA := graph.NewResidual(g)
		resB := graph.NewResidual(g)
		for round := 0; round < 3; round++ {
			a := GenerateParallel(resA, cascade.IC, rng.New(uint64(round)+60), 700, workers)
			b := pool.Generate(resB, rng.New(uint64(round)+60), 700, workers)
			if a.Len() != b.Len() {
				t.Fatalf("round %d workers %d: %d vs %d sets", round, workers, a.Len(), b.Len())
			}
			for i := 0; i < a.Len(); i++ {
				if a.Root(i) != b.Root(i) {
					t.Fatalf("round %d set %d: root %d vs %d", round, i, a.Root(i), b.Root(i))
				}
				na, nb := a.SetNodes(i), b.SetNodes(i)
				if len(na) != len(nb) {
					t.Fatalf("round %d set %d: sizes differ", round, i)
				}
				for j := range na {
					if na[j] != nb[j] {
						t.Fatalf("round %d set %d node %d differs", round, i, j)
					}
				}
			}
			resA.Remove(graph.NodeID(round * 7))
			resB.Remove(graph.NodeID(round * 7))
		}
	}
}

// TestPoolConcurrentWorkersSafe drives a pool with several workers across
// residual versions; `go test -race ./internal/ris/...` in CI guards the
// worker scratch against sharing bugs.
func TestPoolConcurrentWorkersSafe(t *testing.T) {
	g := wcTestGraph(t)
	res := graph.NewResidual(g)
	pool := NewSamplerPool(cascade.IC)
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
// zero allocations — no fresh samplers, visited arrays, RNG streams, or
// arena growth per attempt.
func TestAppendParallelWarmNoAllocs(t *testing.T) {
	g := wcTestGraph(t)
	res := graph.NewResidual(g)
	pool := NewSamplerPool(cascade.IC)
	parent := rng.New(5)
	c := NewCollection(res.FullN())
	pool.AppendParallel(c, res, parent, 2000, 1) // warm-up attempt
	avg := testing.AllocsPerRun(20, func() {
		parent.Reseed(5) // identical draws each attempt
		c.Reset()
		pool.AppendParallel(c, res, parent, 2000, 1)
	})
	if avg != 0 {
		t.Fatalf("warm AppendParallel allocates %.1f per attempt, want 0", avg)
	}
}
