package graph

import (
	"fmt"
	"math"
	"slices"
)

// Builder accumulates edges and produces an immutable Graph.
//
// The builder accepts edges in any order, optionally deduplicates parallel
// edges, and supports the paper's standard weighted-cascade (WC) weighting
// p(u,v) = 1/indeg(v) applied after all edges are known.
type Builder struct {
	n        int32
	directed bool
	edges    []Edge
}

// NewBuilder creates a builder for a graph with n nodes. directed records
// the declared dataset type (Table II); undirected datasets should add
// each edge once and call AddUndirected or build with both directions.
func NewBuilder(n int, directed bool) *Builder {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Builder{n: int32(n), directed: directed}
}

// N returns the declared node count.
func (b *Builder) N() int { return int(b.n) }

// AddEdge adds one directed edge u -> v with probability p.
func (b *Builder) AddEdge(u, v NodeID, p float64) error {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop on node %d rejected", u)
	}
	// The negated form also rejects NaN, which passes every one-sided
	// comparison and would otherwise poison the samplers.
	if !(p > 0 && p <= 1) {
		return fmt.Errorf("graph: edge (%d,%d) probability %v outside (0,1]", u, v, p)
	}
	// Adjacency runs are addressed by int32 arena offsets.
	if len(b.edges) >= math.MaxInt32 {
		return fmt.Errorf("graph: more than %d edges", math.MaxInt32)
	}
	b.edges = append(b.edges, Edge{From: u, To: v, P: p})
	return nil
}

// AddUndirected adds both directions of an undirected edge with the same
// probability.
func (b *Builder) AddUndirected(u, v NodeID, p float64) error {
	if err := b.AddEdge(u, v, p); err != nil {
		return err
	}
	return b.AddEdge(v, u, p)
}

// AddArc is AddEdge with a placeholder probability of 1; use together with
// ApplyWeightedCascade when probabilities are derived from degrees.
func (b *Builder) AddArc(u, v NodeID) error { return b.AddEdge(u, v, 1) }

// Grow reserves capacity for extra more edges, like slices.Grow.
// Generators that know their edge count up front call it once, so AddEdge
// never reallocates.
func (b *Builder) Grow(extra int) { b.edges = slices.Grow(b.edges, extra) }

// Dedup removes parallel edges, keeping the first occurrence of each
// (from, to) pair; the kept edges stay in their input order, so the edge
// indices ApplyTrivalency's pick sees are those of the first occurrences.
// Returns the number of edges removed. It runs in O(n+m): edge indices are
// grouped by source with a stable counting sort, and a per-target stamp
// of the last source seen flags the repeats.
func (b *Builder) Dedup() int {
	// Stable counting sort of the edge indices by source.
	next := make([]int32, b.n)
	for _, e := range b.edges {
		next[e.From]++
	}
	sum := int32(0)
	for u, c := range next {
		next[u] = sum
		sum += c
	}
	bySrc := make([]int32, len(b.edges))
	for i, e := range b.edges {
		bySrc[next[e.From]] = int32(i)
		next[e.From]++
	}
	// Within a source's group, an edge repeats a pair exactly when an
	// earlier edge of the group stamped its target.
	last := next // reused: last[v] is the source whose group last reached v
	for i := range last {
		last[i] = -1
	}
	removed := 0
	for _, i := range bySrc {
		e := &b.edges[i]
		if last[e.To] == e.From {
			e.From = -1 // marks the repeat for the compaction below
			removed++
			continue
		}
		last[e.To] = e.From
	}
	if removed > 0 {
		b.edges = slices.DeleteFunc(b.edges, func(e Edge) bool { return e.From < 0 })
	}
	return removed
}

// ApplyWeightedCascade sets every edge's probability to 1/indeg(to), the
// weighting used throughout the paper's experiments ("we set the edge
// probability p(<u,v>) = 1/indeg_v").
func (b *Builder) ApplyWeightedCascade() {
	indeg := make([]int64, b.n)
	for _, e := range b.edges {
		indeg[e.To]++
	}
	for i := range b.edges {
		b.edges[i].P = 1 / float64(indeg[b.edges[i].To])
	}
}

// ApplyUniformProbability sets every edge's probability to p.
func (b *Builder) ApplyUniformProbability(p float64) error {
	if !(p > 0 && p <= 1) { // rejects NaN too
		return fmt.Errorf("graph: uniform probability %v outside (0,1]", p)
	}
	for i := range b.edges {
		b.edges[i].P = p
	}
	return nil
}

// ApplyTrivalency assigns each edge one of the classic trivalency values
// {0.1, 0.01, 0.001} chosen by the pick function (commonly a seeded RNG's
// Intn(3)). The pick function receives the edge index.
func (b *Builder) ApplyTrivalency(pick func(i int) int) {
	vals := [3]float64{0.1, 0.01, 0.001}
	for i := range b.edges {
		b.edges[i].P = vals[pick(i)%3]
	}
}

// Build produces the immutable CSR graph. The builder remains usable.
// Its arenas are base tiers only, exactly sized, with the runs laid out
// back to back in node order: out-runs sorted by target, in-runs by
// source, and parallel edges of one (from, to) pair in their input order
// in both directions.
//
// Construction is O(n+m), three stable counting-sort passes with no
// comparison sort: the edges are scattered by target into the in-arena,
// the in-runs are scanned in node order and scattered by source into the
// out-arena, whose runs therefore come out sorted by target, and the
// out-runs are scanned in node order and scattered by target back into
// the in-arena, whose runs then come out sorted by source. The storage
// mode is settled on the first pass's runs, since whether a run's
// probabilities are all equal does not depend on its order; the other two
// passes carry probabilities only on mixed graphs, so a compressed graph
// never allocates its out-side ones.
func (b *Builder) Build() *Graph {
	n := b.n
	m := int64(len(b.edges))
	g := &Graph{
		n:           n,
		m:           m,
		directed:    b.directed,
		outRun:      make([]span, n),
		outBaseLive: m,
		inMeta:      make([]InMeta, n),
		inBaseLive:  m,
	}
	outAdj := make([]NodeID, m)
	inAdj, inP := make([]NodeID, m), make([]float64, m)
	for _, e := range b.edges {
		g.outRun[e.From].deg++
		g.inMeta[e.To].Deg++
	}
	start := int32(0)
	for u := range g.outRun {
		g.outRun[u].start = start
		start += g.outRun[u].deg
	}
	start = 0
	for v := range g.inMeta {
		g.inMeta[v].Start = start
		start += g.inMeta[v].Deg
		g.maxInDeg = max(g.maxInDeg, g.inMeta[v].Deg)
	}

	next := make([]int32, n) // per-node write cursor of the pass at hand
	inCursors := func() {
		for v := range next {
			next[v] = g.inMeta[v].Start
		}
	}
	// Pass 1: by target, in input order.
	inCursors()
	for _, e := range b.edges {
		k := next[e.To]
		inAdj[k], inP[k] = e.From, e.P
		next[e.To]++
	}
	// On a mixed graph g.inP now aliases inP, which pass 3 rewrites in
	// place; a compressed graph keeps nothing of it.
	g.compressInProbs(Arena[float64]{Base: inP})
	var outP []float64
	if !g.uniformIn {
		outP = make([]float64, m)
	}
	// Pass 2: by source; visiting targets in node order sorts each out-run.
	for u := range next {
		next[u] = g.outRun[u].start
	}
	for v := int32(0); v < n; v++ {
		lo, hi := g.inRange(v)
		for k := lo; k < hi; k++ {
			u := inAdj[k]
			j := next[u]
			outAdj[j] = v
			if outP != nil {
				outP[j] = inP[k]
			}
			next[u]++
		}
	}
	// Pass 3: by target again; visiting sources in node order sorts each
	// in-run.
	inCursors()
	for u := int32(0); u < n; u++ {
		lo, hi := g.outRange(u)
		for j := lo; j < hi; j++ {
			v := outAdj[j]
			k := next[v]
			inAdj[k] = u
			if outP != nil {
				inP[k] = outP[j]
			}
			next[v]++
		}
	}
	g.outAdj.Base, g.outP.Base, g.inAdj.Base = outAdj, outP, inAdj
	return g
}

// compressInProbs settles the probability storage of a graph whose
// in-runs are laid out, given the per-edge probabilities parallel to
// inAdj's tiers. When every node's in-edges share one probability —
// always the case for ApplyWeightedCascade (p = 1/indeg(v)) and
// ApplyUniformProbability — the per-edge array is dropped for a per-node
// one (8 bytes per edge -> 8 bytes per node; ~550 MB on livejournal-s's
// 69M edges), which the out side reads by target, so the caller keeps no
// out-side probabilities either; and success-count sampling tables are
// precomputed so RR-set samplers can draw a node's successful in-edge
// count in O(1) instead of one coin per edge. Mixed-probability graphs
// (trivalency) keep per-edge storage, and the caller keeps it on the out
// side too. Only the runs' contents are read, in any order.
func (g *Graph) compressInProbs(inP Arena[float64]) {
	g.mixedIn = 0
	for _, m := range g.inMeta {
		if !sharedProb(inP.Run(m.Start, m.Deg)) {
			g.mixedIn++
		}
	}
	if g.mixedIn > 0 {
		g.inP = inP // mixed probabilities: keep the per-edge fallback
		return
	}
	g.uniformIn = true
	g.inProb = make([]float64, g.n)
	g.inTabOff = make([]int32, g.n)
	g.tabIndex = make(map[tabKey]int32)
	for v := int32(0); v < g.n; v++ {
		g.inTabOff[v] = -1
		if m := g.inMeta[v]; m.Deg > 0 {
			g.inProb[v] = inP.Run(m.Start, m.Deg)[0]
			g.inTabOff[v] = g.tableFor(v)
		}
		g.setThresholds(v)
	}
	g.inTabThr = slices.Clip(g.inTabThr)
}

// tableFor returns the offset of the success-count table for node v's
// in-degree and shared probability (-1: none), building and indexing it
// on first use. The caller owns g.tabIndex and the table arena's tail.
func (g *Graph) tableFor(v NodeID) int32 {
	p := g.inProb[v]
	if p >= 1 {
		return -1 // samplers special-case certain edges; no table needed
	}
	k := tabKey{deg: g.inMeta[v].Deg, p: p}
	if off, ok := g.tabIndex[k]; ok {
		return off
	}
	return g.addTable(k)
}

// addTable builds the table for a pair not yet in g.tabIndex, appends it
// to the table arena and indexes it. Pairs whose table would exceed
// maxCountTable index as -1.
func (g *Graph) addTable(k tabKey) int32 {
	off := int32(-1)
	if thr := binomialThresholds(int(k.deg), k.p); thr != nil {
		off = int32(len(g.inTabThr))
		g.inTabThr = append(g.inTabThr, thr...)
	}
	g.tabIndex[k] = off
	return off
}

// setThresholds caches the first two entries of node v's success-count
// table in its metadata, or the no-table conventions documented at InMeta.
func (g *Graph) setThresholds(v NodeID) {
	m := &g.inMeta[v]
	switch off := g.inTabOff[v]; {
	case off >= 0:
		// Tables are padded to >= 5 entries, so entry 1 always exists.
		m.Thr0, m.Thr1 = g.inTabThr[off], g.inTabThr[off+1]
	case m.Deg == 0:
		// Every clamped draw ends the visit.
		m.Thr0, m.Thr1 = ^uint32(0), ^uint32(0)
	default:
		// Certain edges / no table: every draw reads as "two or more" and
		// takes the dedicated expansion.
		m.Thr0, m.Thr1 = 0, 0
	}
}

// maxCountTable bounds one success-count table (sentinel included). The
// truncated cumulative Binomial(d, p) needs ~d·p + O(sqrt(d·p)) entries
// before the residual mass falls under the 2^-32 quantization, so the
// weighted-cascade regime (d·p = 1) always fits; a node whose table would
// exceed the cap gets none and samplers fall back to geometric jumps.
const maxCountTable = 64

// binomialThresholds builds the truncated cumulative Binomial(d, p)
// threshold table described at InCountThresholds, or nil when it would
// exceed maxCountTable entries.
func binomialThresholds(d int, p float64) []uint32 {
	const residualCut = 1 - 1.0/(1<<33) // mass below the uint32 quantization
	q := 1 - p
	ratio := p / q
	pk := math.Pow(q, float64(d)) // P(K = 0)
	cum := pk
	thr := make([]uint32, 1, 16)
	thr[0] = scaleThreshold(cum)
	for k := 0; cum < residualCut && k < d; k++ {
		if len(thr) == maxCountTable-1 {
			return nil
		}
		// The conversion rounds the product, so arm64 cannot fuse it into
		// the sum below and every platform builds the same tables.
		pk = float64(pk * (float64(d-k) / float64(k+1) * ratio))
		cum += pk
		thr = append(thr, scaleThreshold(cum))
	}
	// The final reachable count absorbs the truncated tail: overwrite its
	// threshold with the sentinel terminator.
	thr[len(thr)-1] = ^uint32(0)
	// Pad to at least five entries so samplers that resolved "some
	// success" on the cached first threshold can compare the next four
	// branchlessly; padding sentinels never match a (clamped) draw, so
	// they contribute zero to the count.
	for len(thr) < 5 {
		thr = append(thr, ^uint32(0))
	}
	return thr
}

// scaleThreshold maps a cumulative probability to its uint32 threshold,
// saturating below the ^uint32(0) sentinel.
func scaleThreshold(cum float64) uint32 {
	if cum <= 0 {
		return 0
	}
	v := uint64(cum * (1 << 32))
	if v >= 1<<32-1 {
		v = 1<<32 - 2
	}
	return uint32(v)
}

// FromEdges is a convenience constructor for tests and examples.
func FromEdges(n int, directed bool, edges []Edge) (*Graph, error) {
	b := NewBuilder(n, directed)
	for _, e := range edges {
		if err := b.AddEdge(e.From, e.To, e.P); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// MustFromEdges is FromEdges that panics on error; for tests with literal
// edge lists that are known valid.
func MustFromEdges(n int, directed bool, edges []Edge) *Graph {
	g, err := FromEdges(n, directed, edges)
	if err != nil {
		panic(err)
	}
	return g
}
