package graph

import (
	"math"
	"slices"
	"testing"
)

func wcGraph() *Graph {
	b := NewBuilder(5, true)
	for _, e := range [][2]NodeID{{0, 1}, {2, 1}, {3, 1}, {1, 2}, {3, 2}, {0, 4}} {
		if err := b.AddArc(e[0], e[1]); err != nil {
			panic(err)
		}
	}
	b.ApplyWeightedCascade()
	return b.Build()
}

func TestWeightedCascadeCompresses(t *testing.T) {
	g := wcGraph()
	if !g.InUniform() {
		t.Fatal("weighted-cascade graph did not compress in-probabilities")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Node 1 has indeg 3, node 2 indeg 2, node 4 indeg 1.
	for _, tc := range []struct {
		v    NodeID
		deg  int
		p    float64
		srcs []NodeID
	}{
		{1, 3, 1.0 / 3, []NodeID{0, 2, 3}},
		{2, 2, 0.5, []NodeID{1, 3}},
		{4, 1, 1, []NodeID{0}},
		{0, 0, 0, nil},
	} {
		srcs, p, ok := g.InNeighborsUniform(tc.v)
		if !ok {
			t.Fatalf("node %d: InNeighborsUniform not ok on a compressed graph", tc.v)
		}
		if len(srcs) != tc.deg {
			t.Fatalf("node %d: %d in-neighbors, want %d", tc.v, len(srcs), tc.deg)
		}
		for i, u := range tc.srcs {
			if srcs[i] != u {
				t.Fatalf("node %d: in-neighbor %d is %d, want %d", tc.v, i, srcs[i], u)
			}
		}
		if tc.deg > 0 && p != tc.p {
			t.Fatalf("node %d: shared probability %v, want %v", tc.v, p, tc.p)
		}
		// InNeighbors must materialize the same probabilities.
		adj, ps := g.InNeighbors(tc.v)
		if len(adj) != tc.deg || len(ps) != tc.deg {
			t.Fatalf("node %d: InNeighbors lengths %d/%d, want %d", tc.v, len(adj), len(ps), tc.deg)
		}
		for _, q := range ps {
			if q != tc.p {
				t.Fatalf("node %d: materialized probability %v, want %v", tc.v, q, tc.p)
			}
		}
	}
}

func TestTrivalencyKeepsPerEdgeStorage(t *testing.T) {
	b := NewBuilder(4, true)
	for _, e := range [][2]NodeID{{0, 2}, {1, 2}, {2, 3}} {
		if err := b.AddArc(e[0], e[1]); err != nil {
			panic(err)
		}
	}
	b.ApplyTrivalency(func(i int) int { return i }) // 0.1, 0.01, 0.001
	g := b.Build()
	if g.InUniform() {
		t.Fatal("mixed in-probability graph compressed")
	}
	if _, _, ok := g.InNeighborsUniform(2); ok {
		t.Fatal("InNeighborsUniform reported ok on per-edge storage")
	}
	if tab := g.InCountThresholds(2); tab != nil {
		t.Fatal("count table exists on per-edge storage")
	}
	if meta, _, _, _ := g.InSamplerTables(); meta != nil {
		t.Fatal("sampler metadata exists on per-edge storage")
	}
	_, ps := g.InNeighbors(2)
	if len(ps) != 2 || ps[0] != 0.1 || ps[1] != 0.01 {
		t.Fatalf("per-edge probabilities %v, want [0.1 0.01]", ps)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestUniformProbabilityCompresses(t *testing.T) {
	b := NewBuilder(3, true)
	_ = b.AddArc(0, 2)
	_ = b.AddArc(1, 2)
	if err := b.ApplyUniformProbability(0.3); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	if !g.InUniform() {
		t.Fatal("uniform-probability graph did not compress")
	}
	if _, p, _ := g.InNeighborsUniform(2); p != 0.3 {
		t.Fatalf("shared probability %v, want 0.3", p)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestCountThresholdsMatchBinomial verifies the table encodes the exact
// cumulative Binomial distribution (up to uint32 quantization).
func TestCountThresholdsMatchBinomial(t *testing.T) {
	b := NewBuilder(6, true)
	for u := NodeID(0); u < 5; u++ {
		_ = b.AddArc(u, 5)
	}
	if err := b.ApplyUniformProbability(0.3); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	tab := g.InCountThresholds(5)
	if tab == nil {
		t.Fatal("no count table for a Binomial(5, 0.3) node")
	}
	d, p := 5, 0.3
	cum := 0.0
	pk := math.Pow(1-p, float64(d))
	for k := 0; k <= d; k++ {
		if k > 0 {
			pk *= float64(d-k+1) / float64(k) * (p / (1 - p))
		}
		cum += pk
		if tab[k] == ^uint32(0) {
			if cum < 1-1e-6 {
				t.Fatalf("table truncated at k=%d with cumulative %v", k, cum)
			}
			return
		}
		got := float64(tab[k]) / (1 << 32)
		if math.Abs(got-cum) > 1e-6 {
			t.Fatalf("threshold %d encodes %v, want %v", k, got, cum)
		}
	}
	t.Fatal("table lacks a sentinel within d+1 entries")
}

// TestInCountThresholdsEndAtSentinel: every table InCountThresholds
// returns ends at its one sentinel and has no capacity past it — for a
// table in the middle of the arena, for one that is the sentinel alone
// (a probability below the 2^-32 quantization), and for one ApplyDelta
// appended to an arena its parent still shares.
func TestInCountThresholdsEndAtSentinel(t *testing.T) {
	tiny := NewBuilder(4, true)
	for u := NodeID(0); u < 3; u++ {
		_ = tiny.AddArc(u, 3)
	}
	_ = tiny.AddArc(3, 0)
	if err := tiny.ApplyUniformProbability(1e-12); err != nil {
		t.Fatal(err)
	}
	wc := wcGraph()
	// Dropping one of node 1's three in-edges leaves two at p = 1/3, a
	// (degree, probability) pair with no table yet, so the child appends one.
	child, _, err := wc.ApplyDelta(nil, []Edge{{From: 3, To: 1}})
	if err != nil {
		t.Fatal(err)
	}
	tables := 0
	for name, g := range map[string]*Graph{"wc": wc, "tiny-p": tiny.Build(), "delta child": child} {
		for v := NodeID(0); v < NodeID(g.N()); v++ {
			tab := g.InCountThresholds(v)
			if tab == nil {
				continue
			}
			tables++
			if i := slices.Index(tab, ^uint32(0)); i != len(tab)-1 || cap(tab) != len(tab) {
				t.Fatalf("%s node %d: table %x (cap %d), want exactly one sentinel, last",
					name, v, tab, cap(tab))
			}
		}
	}
	if tables < 5 {
		t.Fatalf("checked %d tables, want at least 5", tables)
	}
}

func TestEdgeProbabilityBinarySearch(t *testing.T) {
	g := wcGraph()
	for _, e := range g.Edges() {
		p, ok := g.EdgeProbability(e.From, e.To)
		if !ok || p != e.P {
			t.Fatalf("EdgeProbability(%d,%d) = %v,%v, want %v,true", e.From, e.To, p, ok, e.P)
		}
	}
	if _, ok := g.EdgeProbability(4, 0); ok {
		t.Fatal("found a nonexistent edge")
	}
	if _, ok := g.EdgeProbability(1, 4); ok {
		t.Fatal("found a nonexistent edge")
	}
}

func TestInMetaConsistent(t *testing.T) {
	g := wcGraph()
	meta, arena, thr, tabOff := g.InSamplerTables()
	if meta == nil {
		t.Fatal("no sampler metadata on a small compressed graph")
	}
	for v := NodeID(0); v < NodeID(g.N()); v++ {
		srcs, p, _ := g.InNeighborsUniform(v)
		mv := meta[v]
		if int(mv.Deg) != len(srcs) {
			t.Fatalf("node %d: meta degree %d, want %d", v, mv.Deg, len(srcs))
		}
		for i := range srcs {
			if arena[mv.Start+int32(i)] != srcs[i] {
				t.Fatalf("node %d: arena neighbor %d mismatch", v, i)
			}
		}
		switch {
		case mv.Deg == 0:
			if mv.Thr0 != ^uint32(0) || mv.Thr1 != ^uint32(0) {
				t.Fatalf("zero-degree node %d: Thr0 %#x Thr1 %#x, want sentinels", v, mv.Thr0, mv.Thr1)
			}
		case p >= 1:
			if tabOff[v] >= 0 || mv.Thr0 != 0 || mv.Thr1 != 0 {
				t.Fatalf("certain-edge node %d: TabOff %d Thr0 %#x Thr1 %#x, want -1/0/0", v, tabOff[v], mv.Thr0, mv.Thr1)
			}
		default:
			off := tabOff[v]
			if off < 0 || thr[off] != mv.Thr0 || thr[off+1] != mv.Thr1 {
				t.Fatalf("node %d: Thr0/Thr1 cache inconsistent with table", v)
			}
		}
	}
}
