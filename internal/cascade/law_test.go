package cascade

import (
	"math"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// The keyed realizations must have the law of the eager samplers they
// replaced, which flipped every coin of a world up front from a stream.
// eagerIC and eagerLT are those samplers, kept here as the reference:
// they build the explicit form, so the tests compare the two through the
// same AppendLiveOut.

func eagerIC(g *graph.Graph, r *rng.RNG) *Realization {
	n := g.N()
	rz := &Realization{g: g, model: IC, outIdx: make([]int32, n+1)}
	for u := 0; u < n; u++ {
		adj, ps := g.OutNeighbors(graph.NodeID(u))
		for i, v := range adj {
			if r.Coin(ps.Of(i, v)) {
				rz.outAdj = append(rz.outAdj, v)
			}
		}
		rz.outIdx[u+1] = int32(len(rz.outAdj))
	}
	return rz
}

func eagerLT(g *graph.Graph, r *rng.RNG) *Realization {
	var live []graph.Edge
	for v := 0; v < g.N(); v++ {
		if srcs, p, ok := g.InNeighborsUniform(graph.NodeID(v)); ok {
			if len(srcs) == 0 {
				continue
			}
			if idx := r.PrefixPick(p, len(srcs)); idx >= 0 {
				live = append(live, graph.Edge{From: srcs[idx], To: graph.NodeID(v)})
			}
			continue
		}
		srcs, ps := g.InNeighbors(graph.NodeID(v))
		x := r.Float64()
		acc := 0.0
		for i, u := range srcs {
			acc += ps[i]
			if x < acc {
				live = append(live, graph.Edge{From: u, To: graph.NodeID(v)})
				break
			}
		}
	}
	rz := FromLiveEdges(g, live)
	rz.model = LT
	return rz
}

// chi2Crit approximates the upper z-sigma quantile of a chi-square
// distribution with df degrees of freedom (Wilson–Hilferty).
func chi2Crit(df int, z float64) float64 {
	k := float64(df)
	c := 1 - 2/(9*k) + z*math.Sqrt(2/(9*k))
	return k * c * c * c
}

// twoSample is the two-sample chi-square statistic of two equal-size
// histograms and its degrees of freedom (non-empty bins minus one).
func twoSample(a, b []float64) (float64, int) {
	stat, df := 0.0, -1
	for i := range a {
		if s := a[i] + b[i]; s > 0 {
			stat += (a[i] - b[i]) * (a[i] - b[i]) / s
			df++
		}
	}
	return stat, df
}

// randomGraph draws a small graph in which node v has up to maxIn
// in-edges, all with probability prob(indeg(v)), and node 2 has a doubled
// in-edge from node 1.
func randomGraph(n, maxIn int, prob func(d int) float64, r *rng.RNG) *graph.Graph {
	var edges []graph.Edge
	for v := 0; v < n; v++ {
		var srcs []graph.NodeID
		for d := r.Intn(maxIn + 1); len(srcs) < d; {
			if u := graph.NodeID(r.Intn(n)); u != graph.NodeID(v) && u != 1 && !slices.Contains(srcs, u) {
				srcs = append(srcs, u)
			}
		}
		if v == 2 {
			srcs = append(srcs, 1, 1)
		}
		for _, u := range srcs {
			edges = append(edges, graph.Edge{From: u, To: graph.NodeID(v), P: prob(len(srcs))})
		}
	}
	return graph.MustFromEdges(n, true, edges)
}

// withOut returns the first node at or after u with an out-edge, and its
// first out-neighbor.
func withOut(g *graph.Graph, u graph.NodeID) graph.Edge {
	for ; ; u++ {
		if adj := g.OutTargets(u); len(adj) > 0 {
			return graph.Edge{From: u, To: adj[0]}
		}
	}
}

// pairs lists g's distinct (u,v) pairs with their multiplicities.
func pairs(g *graph.Graph) (keys [][2]graph.NodeID, mult []int) {
	for u := graph.NodeID(0); int(u) < g.N(); u++ {
		adj := g.OutTargets(u)
		for i, v := range adj {
			if i > 0 && adj[i-1] == v {
				mult[len(mult)-1]++
				continue
			}
			keys = append(keys, [2]graph.NodeID{u, v})
			mult = append(mult, 1)
		}
	}
	return keys, mult
}

// liveMult returns, for each pair of keys, how many of its parallel
// copies are live in rz.
func liveMult(rz *Realization, keys [][2]graph.NodeID) []int {
	out := make([]int, len(keys))
	var buf []graph.NodeID
	i := 0
	for u := graph.NodeID(0); int(u) < rz.g.N(); u++ {
		buf = rz.AppendLiveOut(buf[:0], u)
		for ; i < len(keys) && keys[i][0] == u; i++ {
			for _, v := range buf {
				if v == keys[i][1] {
					out[i]++
				}
			}
		}
	}
	return out
}

// TestKeyedICLawMatchesEager compares keyed and eager IC worlds on the
// Fig. 1 graph with one edge doubled: the per-pair distribution of live
// copies (0, 1 or 2 for the doubled pair), and the joint liveness of
// every two pairs, by two-sample chi-square.
func TestKeyedICLawMatchesEager(t *testing.T) {
	edges := append(fig1Graph().Edges(), graph.Edge{From: 1, To: 2, P: 0.3})
	g := graph.MustFromEdges(7, true, edges)
	keys, mult := pairs(g)
	if !slices.Contains(mult, 2) {
		t.Fatal("test graph lost its doubled edge")
	}
	const reps = 40000
	tally := func(sample func(*rng.RNG) *Realization, r *rng.RNG) (hist [][]float64, joint [][][4]float64) {
		hist = make([][]float64, len(keys))
		joint = make([][][4]float64, len(keys))
		for i := range keys {
			hist[i] = make([]float64, mult[i]+1)
			joint[i] = make([][4]float64, len(keys))
		}
		for range reps {
			m := liveMult(sample(r), keys)
			for i := range keys {
				hist[i][m[i]]++
				for j := i + 1; j < len(keys); j++ {
					joint[i][j][b2i(m[i] > 0)*2+b2i(m[j] > 0)]++
				}
			}
		}
		return hist, joint
	}
	kh, kj := tally(func(r *rng.RNG) *Realization { return Sample(g, IC, r) }, rng.New(1))
	eh, ej := tally(func(r *rng.RNG) *Realization { return eagerIC(g, r) }, rng.New(2))

	stat, df := 0.0, 0
	for i := range keys {
		s, d := twoSample(kh[i], eh[i])
		stat += s
		df += d
	}
	if crit := chi2Crit(df, 3.09); stat > crit {
		t.Fatalf("per-pair live-copy law: chi-square %.1f > %.1f (df=%d)", stat, crit, df)
	}
	// Pairwise: each 2x2 joint table, Bonferroni over the pairs of pairs.
	for i := range keys {
		for j := i + 1; j < len(keys); j++ {
			s, d := twoSample(kj[i][j][:], ej[i][j][:])
			if crit := chi2Crit(d, 4.5); s > crit {
				t.Errorf("joint liveness of %v and %v: chi-square %.1f > %.1f (df=%d)", keys[i], keys[j], s, crit, d)
			}
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// parents returns each node's LT in-parent in rz, -1 for none.
func parents(rz *Realization) []graph.NodeID {
	par := make([]graph.NodeID, rz.g.N())
	for v := range par {
		par[v] = -1
	}
	var buf []graph.NodeID
	for u := graph.NodeID(0); int(u) < rz.g.N(); u++ {
		buf = rz.AppendLiveOut(buf[:0], u)
		for _, v := range buf {
			if par[v] >= 0 {
				panic("LT node with two live in-edges")
			}
			par[v] = u
		}
	}
	return par
}

// checkLTLaw compares the per-node parent distribution of keyed and eager
// LT worlds on g by two-sample chi-square, summed over nodes.
func checkLTLaw(t *testing.T, g *graph.Graph) {
	t.Helper()
	const reps = 30000
	tally := func(sample func(*rng.RNG) *Realization, r *rng.RNG) []map[graph.NodeID]float64 {
		hist := make([]map[graph.NodeID]float64, g.N())
		for v := range hist {
			hist[v] = map[graph.NodeID]float64{}
		}
		for range reps {
			for v, p := range parents(sample(r)) {
				hist[v][p]++
			}
		}
		return hist
	}
	kh := tally(func(r *rng.RNG) *Realization { return Sample(g, LT, r) }, rng.New(3))
	eh := tally(func(r *rng.RNG) *Realization { return eagerLT(g, r) }, rng.New(4))
	stat, df := 0.0, 0
	for v := range kh {
		srcs, _ := g.InNeighbors(graph.NodeID(v))
		cats := append(slices.Compact(slices.Clone(srcs)), -1)
		a, b := make([]float64, len(cats)), make([]float64, len(cats))
		for i, c := range cats {
			a[i], b[i] = kh[v][c], eh[v][c]
		}
		s, d := twoSample(a, b)
		stat += s
		df += d
	}
	if df == 0 {
		t.Fatal("no node has an in-parent to test")
	}
	if crit := chi2Crit(df, 3.09); stat > crit {
		t.Fatalf("LT parent law: chi-square %.1f > %.1f (df=%d)", stat, crit, df)
	}
}

// TestKeyedLTLawMatchesEager checks the LT parent law on compressed
// in-probability storage, and on per-edge storage after a delta whose
// mixed-probability insert demotes the whole graph.
func TestKeyedLTLawMatchesEager(t *testing.T) {
	g := randomGraph(40, 5, func(d int) float64 { return 0.9 / float64(d) }, rng.New(5))
	if !g.InUniform() {
		t.Fatal("test graph should store compressed in-probabilities")
	}
	checkLTLaw(t, g)

	h, _, err := g.ApplyDelta([]graph.Edge{{From: 3, To: 2, P: 0.04}}, []graph.Edge{withOut(g, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if h.InUniform() {
		t.Fatal("a mixed-probability insert should demote the graph to per-edge storage")
	}
	checkLTLaw(t, h)
}

// parentInterval returns the range of v's uniform that picks parent p
// (-1: no parent) on g's in-list of v.
func parentInterval(g *graph.Graph, v, p graph.NodeID) (lo, hi float64) {
	srcs, ps := g.InNeighbors(v)
	lo, hi, acc := 2.0, -1.0, 0.0
	for i, w := range srcs {
		if w == p {
			lo, hi = min(lo, acc), acc+ps[i]
		}
		acc += ps[i]
	}
	if p < 0 {
		return acc, 1
	}
	return lo, hi
}

// TestKeyedWorldSurvivesDelta: the same key on a graph derived by
// ApplyDelta is the same world wherever the delta did not reach. Every
// IC pair the delta left alone keeps its coins, every LT node whose
// in-list it left alone keeps its parent, and every other LT node keeps
// its uniform: the old and new parent are picked by overlapping ranges.
func TestKeyedWorldSurvivesDelta(t *testing.T) {
	g := randomGraph(40, 5, func(d int) float64 { return 0.9 / float64(d) }, rng.New(6))
	inserts := []graph.Edge{{From: 7, To: 9}, {From: 1, To: 2}, {From: 11, To: 30}}
	for i, e := range inserts {
		_, p, _ := g.InNeighborsUniform(e.To)
		if p == 0 {
			p = 0.1
		}
		inserts[i].P = p
	}
	deletes := []graph.Edge{withOut(g, 0), withOut(g, 5), withOut(g, 12)}
	h, _, err := g.ApplyDelta(inserts, deletes)
	if err != nil {
		t.Fatal(err)
	}
	if !h.InUniform() {
		t.Fatal("delta should keep compressed in-probability storage")
	}
	// pairRun is u's adjacency and probabilities restricted to target v.
	pairRun := func(g *graph.Graph, u, v graph.NodeID) []float64 {
		adj, ps := g.OutNeighbors(u)
		var run []float64
		for i, w := range adj {
			if w == v {
				run = append(run, ps.Of(i, w))
			}
		}
		return run
	}
	keys, _ := pairs(g)
	kept, changed := 0, 0
	for key := uint64(0); key < 300; key++ {
		a, b := Sample(g, IC, rng.New(key)), Sample(h, IC, rng.New(key))
		ma, mb := liveMult(a, keys), liveMult(b, keys)
		for i, k := range keys {
			if !slices.Equal(pairRun(g, k[0], k[1]), pairRun(h, k[0], k[1])) {
				continue
			}
			kept++
			if ma[i] != mb[i] {
				t.Fatalf("key %d: untouched pair %v has %d live copies before the delta, %d after", key, k, ma[i], mb[i])
			}
		}

		pa, pb := parents(Sample(g, LT, rng.New(key))), parents(Sample(h, LT, rng.New(key)))
		for v := range pa {
			sa, qa := g.InNeighbors(graph.NodeID(v))
			sb, qb := h.InNeighbors(graph.NodeID(v))
			if slices.Equal(sa, sb) && slices.Equal(qa, qb) {
				if pa[v] != pb[v] {
					t.Fatalf("key %d: untouched LT node %d changed parent %d -> %d", key, v, pa[v], pb[v])
				}
				continue
			}
			changed++
			loA, hiA := parentInterval(g, graph.NodeID(v), pa[v])
			loB, hiB := parentInterval(h, graph.NodeID(v), pb[v])
			if max(loA, loB) >= min(hiA, hiB)+1e-9 {
				t.Fatalf("key %d: touched LT node %d: parent %d needs u in [%v,%v), parent %d needs [%v,%v)",
					key, v, pa[v], loA, hiA, pb[v], loB, hiB)
			}
		}
	}
	if kept == 0 || changed == 0 {
		t.Fatalf("degenerate delta: %d untouched pairs, %d touched LT nodes", kept, changed)
	}
}

// TestLiveOutQueryOrderIndependent: a keyed world's live edges do not
// depend on the order they are read in, and every cascade entry point
// agrees with a breadth-first search over AppendLiveOut.
func TestLiveOutQueryOrderIndependent(t *testing.T) {
	g := randomGraph(60, 6, func(d int) float64 { return 0.8 / float64(d) }, rng.New(8))
	for _, model := range []Model{IC, LT} {
		rz := Sample(g, model, rng.New(21))
		fwd := make([][]graph.NodeID, g.N())
		for u := range fwd {
			fwd[u] = rz.AppendLiveOut(nil, graph.NodeID(u))
		}
		for _, u := range rng.New(22).Perm(g.N()) {
			if got := rz.AppendLiveOut(nil, graph.NodeID(u)); !slices.Equal(got, fwd[u]) {
				t.Fatalf("%v: LiveOut(%d) read out of order = %v, in order %v", model, u, got, fwd[u])
			}
		}
		var live []graph.Edge
		for u, vs := range fwd {
			for _, v := range vs {
				live = append(live, graph.Edge{From: graph.NodeID(u), To: v})
			}
		}
		explicit := FromLiveEdges(g, live)
		for s := graph.NodeID(0); int(s) < g.N(); s++ {
			seeds := []graph.NodeID{s, (s + 17) % graph.NodeID(g.N())}
			res := graph.NewResidual(g)
			res.Remove((s + 1) % graph.NodeID(g.N()))
			want := Activate(explicit, res.Clone(), seeds)
			if got := Activate(rz, res.Clone(), seeds); !slices.Equal(got, want) {
				t.Fatalf("%v: Activate(%v) = %v on the keyed world, %v on its live edges", model, seeds, got, want)
			}
			if got, want := Spread(rz, seeds), Spread(explicit, seeds); got != want {
				t.Fatalf("%v: Spread(%v) = %d keyed, %d explicit", model, seeds, got, want)
			}
			if got := SpreadOn(rz, res, seeds); got != len(want) {
				t.Fatalf("%v: SpreadOn(%v) = %d, Activate found %d", model, seeds, got, len(want))
			}
		}
	}
}
