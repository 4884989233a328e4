package ris

import (
	"testing"

	"repro/internal/cascade"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// legacyCollection replicates the pre-CSR storage layout — one boxed
// *rrSet per set plus a per-node [][]int32 inverted index — as the
// reference the arena layout must be behaviorally identical to.
type legacyCollection struct {
	sets  []*rrSet
	index [][]int32
}

func newLegacy(n int) *legacyCollection {
	return &legacyCollection{index: make([][]int32, n)}
}

func (l *legacyCollection) add(rr *rrSet) {
	id := int32(len(l.sets))
	l.sets = append(l.sets, rr)
	for _, u := range rr.Nodes {
		l.index[u] = append(l.index[u], id)
	}
}

func (l *legacyCollection) cov(s []graph.NodeID) int {
	covered := make(map[int32]bool)
	for _, u := range s {
		for _, id := range l.index[u] {
			covered[id] = true
		}
	}
	return len(covered)
}

// legacyGreedy is plain (non-CELF) greedy max-coverage over the legacy
// layout: full marginal rescan per pick, smaller node ID on ties.
func (l *legacyCollection) greedy(candidates []graph.NodeID, k int) ([]graph.NodeID, []int) {
	covered := make([]bool, len(l.sets))
	count := 0
	var chosen []graph.NodeID
	var cum []int
	for len(chosen) < k {
		best, bestGain := graph.NodeID(-1), 0
		for _, u := range candidates {
			gain := 0
			for _, id := range l.index[u] {
				if !covered[id] {
					gain++
				}
			}
			if gain > bestGain || (gain == bestGain && best >= 0 && gain > 0 && u < best) {
				best, bestGain = u, gain
			}
		}
		if best < 0 || bestGain == 0 {
			break
		}
		for _, id := range l.index[best] {
			if !covered[id] {
				covered[id] = true
				count++
			}
		}
		chosen = append(chosen, best)
		cum = append(cum, count)
	}
	return chosen, cum
}

// generateBoth draws the same θ RR sets (same seed, hence identical RNG
// consumption) into both layouts: the legacy side draws them one at a
// time through the same bulk kernel and boxes each.
func generateBoth(g *graph.Graph, theta int, seed uint64) (*Collection, *legacyCollection) {
	csr := newSampler(graph.NewResidual(g), cascade.IC, rng.New(seed)).generate(theta)
	leg := newLegacy(g.N())
	s := newSampler(graph.NewResidual(g), cascade.IC, rng.New(seed))
	one := NewCollection(g.N())
	for i := 0; i < theta; i++ {
		one.Reset()
		s.appendTo(one, 1)
		if one.Len() == 0 {
			break
		}
		leg.add(&rrSet{Root: one.roots[0], Nodes: append([]graph.NodeID(nil), one.nodesAt(0)...)})
	}
	return csr, leg
}

func randomGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.Generate(gen.Config{Model: gen.PrefAttach, N: 200, AvgDeg: 6, Directed: true, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCSREquivalentToLegacyLayout: on the worked example and a randomized
// graph, the CSR layout must hold the identical set sequence, node-to-set
// index, coverage counts, and greedy seed selection as the legacy layout.
func TestCSREquivalentToLegacyLayout(t *testing.T) {
	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		theta int
	}{
		{"fig1", fig1Graph(), 3000},
		{"random", nil, 2000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			if g == nil {
				g = randomGraph(t)
			}
			csr, leg := generateBoth(g, tc.theta, 123)

			sameRRSets(t, "CSR vs legacy", snapshotSets(csr), leg.sets)
			for u := graph.NodeID(0); u < graph.NodeID(g.N()); u++ {
				got := setsContaining(csr, u)
				want := leg.index[u]
				if len(got) != len(want) {
					t.Fatalf("node %d: %d sets vs legacy %d", u, len(got), len(want))
				}
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("node %d entry %d: %d vs legacy %d", u, j, got[j], want[j])
					}
				}
				if countContaining(csr, u) != len(want) {
					t.Fatalf("node %d countContaining %d, want %d", u, countContaining(csr, u), len(want))
				}
			}

			r := rng.New(99)
			for trial := 0; trial < 30; trial++ {
				var s []graph.NodeID
				for u := 0; u < g.N(); u++ {
					if r.Coin(0.02) {
						s = append(s, graph.NodeID(u))
					}
				}
				if got, want := csr.Cov(s), leg.cov(s); got != want {
					t.Fatalf("Cov(%v) = %d, legacy %d", s, got, want)
				}
			}

			// Identical seed sequences and cumulative coverage. Candidates
			// are a deterministic slice of the node space so greedy has
			// real choices to make.
			var candidates []graph.NodeID
			for u := 0; u < g.N(); u += 2 {
				candidates = append(candidates, graph.NodeID(u))
			}
			gotSeeds, gotCum := csr.GreedyMaxCoverage(candidates, 8)
			wantSeeds, wantCum := leg.greedy(candidates, 8)
			if len(gotSeeds) != len(wantSeeds) {
				t.Fatalf("greedy chose %v, legacy %v", gotSeeds, wantSeeds)
			}
			for i := range gotSeeds {
				if gotSeeds[i] != wantSeeds[i] || gotCum[i] != wantCum[i] {
					t.Fatalf("greedy pick %d: (%d, cov %d) vs legacy (%d, cov %d)",
						i, gotSeeds[i], gotCum[i], wantSeeds[i], wantCum[i])
				}
			}
		})
	}
}

// TestCSRAllocationDrop asserts the headline win: building a θ-set
// collection in the arena layout, with its node-to-set index, performs at
// least 10× fewer allocations than the legacy boxed layout (which paid ≥2
// allocations per RR set — the *rrSet box and its Nodes slice — plus
// per-node index growth).
func TestCSRAllocationDrop(t *testing.T) {
	g := fig1Graph()
	const theta = 2000
	legacyAllocs := testing.AllocsPerRun(5, func() {
		leg := newLegacy(g.N())
		s := newSampler(graph.NewResidual(g), cascade.IC, rng.New(7))
		for i := 0; i < theta; i++ {
			leg.add(s.draw())
		}
	})
	csrAllocs := testing.AllocsPerRun(5, func() {
		s := newSampler(graph.NewResidual(g), cascade.IC, rng.New(7))
		c := s.generate(theta)
		c.index()
	})
	if csrAllocs*10 > legacyAllocs {
		t.Fatalf("CSR build allocates %.0f, legacy %.0f; want ≥10× drop", csrAllocs, legacyAllocs)
	}
	t.Logf("collection build allocations: legacy %.0f, CSR %.0f (%.0f×)",
		legacyAllocs, csrAllocs, legacyAllocs/csrAllocs)
}

// Benchmarks for `go test -bench Collection -benchmem ./internal/ris/`:
// allocs/op is the number to watch (legacy ≈ 2θ + index growth, CSR ≈
// amortized slice growth only). The CSR side builds the node-to-set index
// too, and BenchmarkCovCSR times coverage queries that walk it.

func BenchmarkCollectionBuildCSR(b *testing.B) {
	g := fig1Graph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := newSampler(graph.NewResidual(g), cascade.IC, rng.New(7))
		c := s.generate(2000)
		c.index()
	}
}

func BenchmarkCollectionBuildLegacy(b *testing.B) {
	g := fig1Graph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		leg := newLegacy(g.N())
		s := newSampler(graph.NewResidual(g), cascade.IC, rng.New(7))
		for j := 0; j < 2000; j++ {
			leg.add(s.draw())
		}
	}
}

func BenchmarkCovCSR(b *testing.B) {
	g := fig1Graph()
	c := newSampler(graph.NewResidual(g), cascade.IC, rng.New(7)).generate(50000)
	seeds := []graph.NodeID{0, 1, 5}
	c.Cov(seeds)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Cov(seeds)
	}
}
