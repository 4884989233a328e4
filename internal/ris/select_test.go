package ris

import (
	"testing"

	"repro/internal/cascade"
	"repro/internal/graph"
	"repro/internal/rng"
)

// randomCollection builds a collection of random sets directly (not via a
// sampler) so tests control the size distribution and can cross the
// parallel-index threshold cheaply.
func randomCollection(r *rng.RNG, n, sets, maxLen int) *Collection {
	c := NewCollection(n)
	var buf []graph.NodeID
	for i := 0; i < sets; i++ {
		l := 1 + r.Intn(maxLen)
		root := graph.NodeID(r.Intn(n))
		buf = append(buf[:0], root)
		for len(buf) < l {
			u := graph.NodeID(r.Intn(n))
			dup := false
			for _, v := range buf {
				if v == u {
					dup = true
					break
				}
			}
			if !dup {
				buf = append(buf, u)
			}
		}
		c.AddSet(root, buf)
	}
	return c
}

// TestGreedyMaxCoverageParallelMatchesSerial is the equivalence property
// behind threading Workers through imm.Select: for randomized collections
// and every worker count, the parallel path must return exactly the serial
// CELF's seed sequence and cumulative coverage curve. The largest case
// crosses minParallelIndexSets so the range-partitioned index build is
// exercised too.
func TestGreedyMaxCoverageParallelMatchesSerial(t *testing.T) {
	r := rng.New(42)
	cases := []struct{ n, sets, maxLen, k int }{
		{n: 30, sets: 120, maxLen: 5, k: 8},
		{n: 200, sets: 2000, maxLen: 10, k: 25},
		{n: 300, sets: 3 * minParallelIndexSets, maxLen: 6, k: 40},
	}
	for _, tc := range cases {
		c := randomCollection(r, tc.n, tc.sets, tc.maxLen)
		candidates := make([]graph.NodeID, tc.n)
		for i := range candidates {
			candidates[i] = graph.NodeID(i)
		}
		wantSeeds, wantCum := c.GreedyMaxCoverage(candidates, tc.k)
		for _, workers := range []int{1, 2, 8} {
			c.invValid = false // force an index rebuild on this path too
			gotSeeds, gotCum := c.GreedyMaxCoverageWorkers(candidates, tc.k, workers)
			if len(gotSeeds) != len(wantSeeds) {
				t.Fatalf("n=%d sets=%d workers=%d: chose %d seeds, serial %d",
					tc.n, tc.sets, workers, len(gotSeeds), len(wantSeeds))
			}
			for i := range gotSeeds {
				if gotSeeds[i] != wantSeeds[i] || gotCum[i] != wantCum[i] {
					t.Fatalf("n=%d sets=%d workers=%d pick %d: got (%d, cov %d), serial (%d, cov %d)",
						tc.n, tc.sets, workers, i, gotSeeds[i], gotCum[i], wantSeeds[i], wantCum[i])
				}
			}
		}
	}
}

// TestBuildIndexParallelMatchesSerial pins the stronger invariant the
// equivalence above relies on: the parallel counting sort produces the
// byte-identical CSR inverted index (per-node set ids ascending, same
// layout) as the lazy serial build.
func TestBuildIndexParallelMatchesSerial(t *testing.T) {
	r := rng.New(7)
	c := randomCollection(r, 150, 2*minParallelIndexSets, 7)
	c.ensureIndex()
	wantOff := append([]int32(nil), c.invOff...)
	wantArena := append([]int32(nil), c.invArena...)
	for _, workers := range []int{2, 3, 8} {
		c.invValid = false
		c.BuildIndex(workers)
		if len(c.invOff) != len(wantOff) || len(c.invArena) != len(wantArena) {
			t.Fatalf("workers=%d: index shape (%d,%d), serial (%d,%d)",
				workers, len(c.invOff), len(c.invArena), len(wantOff), len(wantArena))
		}
		for i := range wantOff {
			if c.invOff[i] != wantOff[i] {
				t.Fatalf("workers=%d: invOff[%d] = %d, serial %d", workers, i, c.invOff[i], wantOff[i])
			}
		}
		for i := range wantArena {
			if c.invArena[i] != wantArena[i] {
				t.Fatalf("workers=%d: invArena[%d] = %d, serial %d", workers, i, c.invArena[i], wantArena[i])
			}
		}
	}
}

// benchmarkGreedy measures one IMM-style selection (all nodes as
// candidates, k=50) on a θ=120k collection, index rebuild included — in
// real runs selection always follows a top-up, which invalidates the
// index. The acceptance target is workers8 ≥ 2× serial on 8+ hardware
// threads; on fewer cores the two converge.
func benchmarkGreedy(b *testing.B, workers int) {
	g := benchGraph(b)
	res := graph.NewResidual(g)
	c := NewSamplerPool(cascade.IC).Generate(res, rng.New(3), 120_000, 0)
	candidates := make([]graph.NodeID, g.N())
	for i := range candidates {
		candidates[i] = graph.NodeID(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.invValid = false
		seeds, _ := c.GreedyMaxCoverageWorkers(candidates, 50, workers)
		if len(seeds) == 0 {
			b.Fatal("no seeds selected")
		}
	}
}

func BenchmarkGreedyMaxCoverage(b *testing.B) {
	b.Run("serial", func(b *testing.B) { benchmarkGreedy(b, 1) })
	b.Run("workers8", func(b *testing.B) { benchmarkGreedy(b, 8) })
}
