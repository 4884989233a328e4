// Package graph provides the probabilistic directed-graph substrate that
// every algorithm in the repository runs on.
//
// A Graph is an immutable compressed-sparse-row (CSR) structure holding
// both out-adjacency (used by forward cascades) and in-adjacency (used by
// reverse-reachable-set sampling), with adjacency sorted per node so edge
// lookups binary-search. Each directed edge carries an influence
// probability p(e) in (0, 1], matching the Independent Cascade model of
// Kempe et al. that the paper builds on.
//
// Each node locates its adjacency run in a direction by a (start, degree)
// pair into that direction's Arena, not by contiguous offsets. An Arena
// has two tiers. The base tier is Builder.Build's output, runs laid out
// back to back in node order and exactly sized; every graph derived from
// it by ApplyDelta shares it, and nothing ever writes to it or copies it.
// The overflow tier holds only the runs that deltas have rewritten. A
// run's start says which tier it lives in: positions below the base
// length read the base, the rest read the overflow.
//
// An overflow is private to one lineage, the chain of graphs derived from
// one another in place. ApplyDelta keeps every untouched node's runs
// where they are and writes the touched nodes' runs to the overflow. Only
// the lineage tip — the last graph derived in place — may append to it,
// and only past the visible length of every older graph, so no graph
// ever observes a write: graphs stay immutable and safe for concurrent
// readers. A delta on anything but the tip (a sibling derived from a
// shared graph, such as every campaign's first delta), or one whose
// overflow has no room, compacts just the overflow-resident runs into a
// fresh overflow with room to grow. A direction folds base and overflow
// into a new base — the one full relayout, now rare — only when the
// probability storage changes mode, or when the base plus a compacted
// overflow with room to double would pass twice the live entries.
// A delta therefore costs O(N + Δ·deg) rather than O(M), amortized, and a
// direction never holds more than twice its live entries.
//
// Probability storage is dual. Build detects when every node's in-edges
// share one probability — always true for the paper's weighted-cascade
// weighting p(u,v) = 1/indeg(v) and for uniform edge probabilities — and
// then keeps one probability per node (InUniform / InNeighborsUniform)
// in place of one per edge in either direction: an out-edge (u, v) reads
// the probability v's in-edges share, so an arc costs 8 bytes (its
// target's and its source's IDs) instead of the 24 of per-edge storage,
// ~1.1 GB less on livejournal-s's 69M edges. Compression also
// precomputes per-node success-count tables (InCountThresholds) and
// packed sampler metadata (InSamplerTables) that let RR-set samplers
// draw a node's successful in-edge count in O(1).
// Mixed-probability graphs (trivalency) keep a per-edge probability
// beside every arc on both sides and the accessor-based API.
//
// Nodes keep the IDs 0..N-1 given to the Builder. Adjacency runs are
// sorted by neighbor ID, parallel edges of one (from, to) pair keep the
// order the Builder received them in, Residual fills its alive list in
// node-ID order, and every deterministic argmax in the repository breaks
// ties toward the smaller node ID. Builder.Build and Builder.Dedup run in
// O(N+M), with counting sorts and no comparison sort.
//
// Graphs are created only by Builder and ApplyDelta; once created, a
// Graph is safe for concurrent readers. Residual graphs (the paper's G_i)
// are lightweight views provided by the Residual type, which maintains
// its alive-node list incrementally for O(1) uniform root sampling.
package graph

import (
	"fmt"
	"slices"
)

// NodeID identifies a node. Nodes are dense integers in [0, N).
type NodeID = int32

// Edge is one directed, weighted edge.
type Edge struct {
	From NodeID
	To   NodeID
	P    float64 // influence probability in (0, 1]
}

// Graph is an immutable probabilistic directed graph in CSR form.
type Graph struct {
	n int32
	m int64

	// Out-adjacency: the edges leaving node u are
	// outAdj.Run(outRun[u].start, outRun[u].deg). The arenas may hold
	// runs no node references (see the package doc). outBaseLive counts
	// the entries of live runs in the base tier. outP holds per-edge
	// probabilities at the same positions on mixed graphs only; with
	// uniformIn it is empty, and edge (u, v) has probability inProb[v]:
	// an arc is the same edge in both directions.
	outRun      []span
	outAdj      Arena[NodeID]
	outP        Arena[float64] // per-edge; empty when uniformIn
	outBaseLive int64

	// In-adjacency: the sources of the edges entering node v are
	// inAdj.Run(inMeta[v].Start, inMeta[v].Deg). Probability storage is
	// dual: when every node's in-edges share one probability (always true
	// for weighted-cascade and ApplyUniformProbability weightings) no
	// per-edge probability is kept on either side, only a per-node inProb
	// — 8 bytes per node instead of 16 per edge, which is what lets
	// livejournal-scale graphs fit in memory. Mixed-probability graphs
	// (trivalency) keep the per-edge inP fallback, parallel to inAdj as
	// outP is to outAdj; mixedIn counts their nodes whose in-edges do not
	// share one probability (0 exactly when uniformIn), so ApplyDelta can
	// tell in O(Δ) when a delta restores uniformity. inBaseLive is
	// outBaseLive's in-side twin.
	inMeta     []InMeta
	inAdj      Arena[NodeID]
	inP        Arena[float64] // per-edge; empty when uniformIn
	inProb     []float64      // per-node shared probability; nil unless uniformIn
	uniformIn  bool
	mixedIn    int32
	inBaseLive int64

	// Success-count sampling tables for uniform in-probability nodes:
	// inTabThr[inTabOff[v]:] is a truncated cumulative Binomial(indeg(v),
	// inProb[v]) threshold table (see InCountThresholds). Nodes with the
	// same (degree, probability) pair share one table; tabIndex maps each
	// pair seen so far to its table's offset (-1: the pair has none). It
	// is shared along a lineage and cloned only when a new pair appears.
	inTabOff []int32
	inTabThr []uint32
	tabIndex map[tabKey]int32

	directed bool

	// maxInDeg caches the largest in-degree, set at Build/ApplyDelta time,
	// so samplers can pre-size position scratch at bind time in O(1)
	// instead of scanning the CSR index per bind.
	maxInDeg int32

	// epoch counts the topology deltas applied since the graph was built:
	// Builder.Build produces epoch 0 and every ApplyDelta increments it.
	// Consumers that cache per-topology state (the service instance
	// registry, RR-set collections) key on it to avoid mixing artifacts
	// across divergent topologies.
	epoch int64

	// lin is the arena lineage the graph belongs to and linGen its
	// position in it: the graph may append to the shared overflow tiers
	// only while lin's tip claim reads linGen (see ApplyDelta). nil for
	// Builder.Build output, which has no overflow.
	lin    *lineage
	linGen uint64
}

// span locates one node's out-adjacency run: outAdj.Run(start, deg).
type span struct {
	start, deg int32
}

// Arena is one direction's two-tier run storage (see the package doc):
// a run starting below len(Base) lies in Base, any other in Over, offset
// by len(Base). No run straddles the two. Positions therefore cover
// [0, Len()), and every entry of either tier is a valid value, so a
// speculative read of any position is safe.
type Arena[T NodeID | float64] struct {
	Base []T // laid out by Build or a fold; shared by every graph derived since; never written
	Over []T // private to one lineage; only its tip appends
}

// Run returns the deg entries of the run at position start. The result
// aliases the arena and must not be modified.
func (a Arena[T]) Run(start, deg int32) []T {
	if int(start) < len(a.Base) {
		return a.Base[start : start+deg : start+deg]
	}
	start -= int32(len(a.Base))
	return a.Over[start : start+deg : start+deg]
}

// At returns the entry at position k.
func (a Arena[T]) At(k int32) T {
	if int(k) < len(a.Base) {
		return a.Base[k]
	}
	return a.Over[int(k)-len(a.Base)]
}

// Len returns the number of positions, len(Base)+len(Over).
func (a Arena[T]) Len() int { return len(a.Base) + len(a.Over) }

// tabKey identifies a success-count table: Binomial(deg, p).
type tabKey struct {
	deg int32
	p   float64
}

// InMeta is the packed per-node reverse-sampling metadata: node v's
// in-neighbors occupy arena[Start:Start+Deg] of the slice returned by
// InSamplerTables. Thr0 and Thr1 cache the first two thresholds of the
// node's success-count table, so the two most common visit outcomes —
// zero successful in-edges (draw < Thr0) and exactly one (Thr0 <= draw
// < Thr1) — resolve on this struct alone, with no table access. For
// zero-degree nodes both are the sentinel (every clamped draw lands
// below Thr0, ending the visit immediately); for table-less nodes both
// are 0, so every draw reads as "two or more" and falls through to
// their dedicated expansion. Counts of two or more are resolved against
// the full table, found through the offsets slice InSamplerTables also
// returns. The 16-byte stride keeps an element inside one cache line
// and indexing a shift.
type InMeta struct {
	Start int32
	Deg   int32
	Thr0  uint32
	Thr1  uint32
}

// N returns the number of nodes.
func (g *Graph) N() int { return int(g.n) }

// M returns the number of directed edges. For graphs built from an
// undirected edge list, each undirected edge contributes two directed edges
// and M counts both.
func (g *Graph) M() int64 { return g.m }

// Epoch returns the number of topology deltas applied since the graph was
// built from scratch (0 for Builder.Build output; see ApplyDelta).
func (g *Graph) Epoch() int64 { return g.epoch }

// Directed reports whether the graph was declared directed at build time.
// This only affects dataset statistics (Table II reports the declared
// type); the adjacency structure is always directed internally.
func (g *Graph) Directed() bool { return g.directed }

// OutDegree returns the number of edges leaving u.
func (g *Graph) OutDegree(u NodeID) int { return int(g.outRun[u].deg) }

// InDegree returns the number of edges entering v.
func (g *Graph) InDegree(v NodeID) int { return int(g.inMeta[v].Deg) }

// MaxInDegree returns the largest in-degree of any node, cached at build
// time.
func (g *Graph) MaxInDegree() int { return int(g.maxInDeg) }

// outRange and inRange return the arena bounds of a node's runs.
func (g *Graph) outRange(u NodeID) (lo, hi int32) {
	r := g.outRun[u]
	return r.start, r.start + r.deg
}

func (g *Graph) inRange(v NodeID) (lo, hi int32) {
	m := g.inMeta[v]
	return m.Start, m.Start + m.Deg
}

// OutTargets returns the targets of the edges leaving u, sorted by ID.
// The result aliases internal storage and must not be modified.
func (g *Graph) OutTargets(u NodeID) []NodeID {
	r := g.outRun[u]
	return g.outAdj.Run(r.start, r.deg)
}

// OutNeighbors returns the targets of the edges leaving u, sorted by ID,
// and their probabilities: ps.Of(i, adj[i]) is the probability of edge
// (u, adj[i]). Neither allocates; adj aliases internal storage and must
// not be modified. Callers that need only the targets use OutTargets.
func (g *Graph) OutNeighbors(u NodeID) (adj []NodeID, ps OutProbs) {
	r := g.outRun[u]
	if g.uniformIn {
		return g.outAdj.Run(r.start, r.deg), OutProbs{g.inProb, true}
	}
	adj, p := runWithProbs(g.outAdj, g.outP, r.start, r.deg)
	return adj, OutProbs{p, false}
}

// OutProbs resolves the probabilities of one out-run's edges where they
// are stored: per edge, parallel to the run, on mixed graphs, and on
// compressed (InUniform) graphs as the in-probability each target
// shares.
type OutProbs struct {
	p        []float64
	byTarget bool // p is indexed by target, not by position in the run
}

// Of returns the probability of the run's edge i, whose target is v.
func (o OutProbs) Of(i int, v NodeID) float64 {
	if o.byTarget {
		return o.p[v]
	}
	return o.p[i]
}

// runWithProbs returns the run at start of an adjacency arena and of the
// probability arena parallel to it. The two share their tier split, so
// one comparison picks both tiers, which keeps the accessors that call it
// cheap enough to inline.
func runWithProbs(adj Arena[NodeID], p Arena[float64], start, deg int32) ([]NodeID, []float64) {
	a, ps := adj.Base, p.Base
	if int(start) >= len(a) {
		start -= int32(len(a))
		a, ps = adj.Over, p.Over
	}
	hi := start + deg
	return a[start:hi:hi], ps[start:hi:hi]
}

// InNeighbors returns the sources of edges entering v and their
// probabilities. With per-edge storage both slices alias internal arrays
// and must not be modified; with compressed per-node storage (InUniform)
// the probability slice is materialized on every call, so hot paths must
// go through InNeighborsUniform instead.
func (g *Graph) InNeighbors(v NodeID) ([]NodeID, []float64) {
	m := g.inMeta[v]
	if !g.uniformIn {
		return runWithProbs(g.inAdj, g.inP, m.Start, m.Deg)
	}
	ps := make([]float64, m.Deg)
	p := g.inProb[v]
	for i := range ps {
		ps[i] = p
	}
	return g.inAdj.Run(m.Start, m.Deg), ps
}

// InUniform reports whether the graph stores one shared in-probability per
// node (compressed storage) instead of one per edge. True for the paper's
// weighted-cascade weighting p(u,v) = 1/indeg(v) and for uniform edge
// probabilities; false for trivalency-style mixed weightings.
func (g *Graph) InUniform() bool { return g.uniformIn }

// InNeighborsUniform returns the sources of edges entering v together with
// the single probability all of them share, when the graph stores
// compressed in-probabilities. ok is false on per-edge storage and callers
// must fall back to InNeighbors. The source slice aliases internal storage.
func (g *Graph) InNeighborsUniform(v NodeID) ([]NodeID, float64, bool) {
	if !g.uniformIn {
		return nil, 0, false
	}
	m := g.inMeta[v]
	return g.inAdj.Run(m.Start, m.Deg), g.inProb[v], true
}

// InCountThresholds returns the success-count sampling table of node v, or
// nil when the graph stores per-edge probabilities or no table was built
// for v's (degree, probability) pair. The table encodes the cumulative
// Binomial(indeg(v), inProb(v)) distribution as uint32 thresholds scaled
// by 2^32 and ends at its one ^uint32(0) sentinel: drawing one Uint32 u
// and scanning for the first non-sentinel entry > u yields the number of
// successful in-edges in one RNG draw (RR-set samplers then place that
// many successes uniformly, which is distributionally equivalent to one
// independent coin per edge up to the 2^-32 quantization of the table).
// The result is a read-only view; the padding past the sentinel that bulk
// samplers read through InSamplerTables is not part of it.
func (g *Graph) InCountThresholds(v NodeID) []uint32 {
	if g.inTabOff == nil {
		return nil
	}
	off := g.inTabOff[v]
	if off < 0 {
		return nil
	}
	tab := g.inTabThr[off:]
	end := slices.Index(tab, ^uint32(0)) + 1
	return tab[:end:end]
}

// InSamplerTables exposes the packed fast-path arrays for bulk RR
// samplers: per-node metadata, the two-tier in-adjacency arena, the
// success-count threshold arena, and the per-node table offsets into it
// (negative for nodes without a table — the cold complement to the
// Thr0/Thr1 cache in InMeta, consulted only when a visit draws two or
// more successes). meta is nil when the graph stores per-edge
// in-probabilities; callers must then use the accessor-based API. All
// four are read-only views of internal storage.
//
// Reach a node's sources only through arena.Run(meta[v].Start,
// meta[v].Deg), which resolves the tier the run lives in. On graphs
// derived by ApplyDelta the runs are not in node order, and either tier
// can hold runs no node references anymore.
func (g *Graph) InSamplerTables() (meta []InMeta, arena Arena[NodeID], thr []uint32, tabOff []int32) {
	if !g.uniformIn {
		return nil, g.inAdj, nil, nil
	}
	return g.inMeta, g.inAdj, g.inTabThr, g.inTabOff
}

// Edges returns a copy of all directed edges in deterministic
// (source-major) order. Intended for tests, serialization and small
// graphs; it allocates O(M).
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.m)
	for u := int32(0); u < g.n; u++ {
		adj, ps := g.OutNeighbors(u)
		for i, v := range adj {
			edges = append(edges, Edge{From: u, To: v, P: ps.Of(i, v)})
		}
	}
	return edges
}

// EdgeProbability returns the probability of edge (u, v) and whether the
// edge exists. Out-adjacency runs are sorted by target at build time, so
// the lookup binary-searches in O(log outdeg) instead of scanning. If
// parallel edges exist, the first one in the run is returned: for Build
// output, the one added first.
func (g *Graph) EdgeProbability(u, v NodeID) (float64, bool) {
	adj, ps := g.OutNeighbors(u)
	i, found := slices.BinarySearch(adj, v)
	if found {
		return ps.Of(i, v), true
	}
	return 0, false
}

// Validate performs internal consistency checks and returns a descriptive
// error on the first violation. It is O(N log N + M) and intended for
// tests and for use after deserialization.
func (g *Graph) Validate() error {
	if len(g.outRun) != int(g.n) || len(g.inMeta) != int(g.n) {
		return fmt.Errorf("graph: run index length mismatch for n=%d", g.n)
	}
	if !g.uniformIn && (len(g.outP.Base) != len(g.outAdj.Base) || len(g.outP.Over) != len(g.outAdj.Over)) {
		return fmt.Errorf("graph: out arena lengths differ: adj=%d+%d p=%d+%d",
			len(g.outAdj.Base), len(g.outAdj.Over), len(g.outP.Base), len(g.outP.Over))
	}
	if !g.uniformIn && (len(g.inP.Base) != len(g.inAdj.Base) || len(g.inP.Over) != len(g.inAdj.Over)) {
		return fmt.Errorf("graph: in arena lengths differ: adj=%d+%d p=%d+%d",
			len(g.inAdj.Base), len(g.inAdj.Over), len(g.inP.Base), len(g.inP.Over))
	}
	// Every run must lie inside one tier of its arena, runs must not
	// overlap, and the degrees must sum to M in both directions.
	if err := checkRuns("out", g.n, g.m, g.outAdj, g.outBaseLive, g.outRange); err != nil {
		return err
	}
	if err := checkRuns("in", g.n, g.m, g.inAdj, g.inBaseLive, g.inRange); err != nil {
		return err
	}
	maxIn := int32(0)
	for v := int32(0); v < g.n; v++ {
		maxIn = max(maxIn, g.inMeta[v].Deg)
		adj, ps := g.OutNeighbors(v)
		for i, u := range adj {
			if u < 0 || u >= g.n {
				return fmt.Errorf("graph: out edge %d of node %d targets invalid node %d", i, v, u)
			}
			if p := ps.Of(i, u); !(p > 0 && p <= 1) { // negated form also catches NaN
				return fmt.Errorf("graph: out edge (%d,%d) has probability %v outside (0,1]", v, u, p)
			}
		}
		for i, u := range g.inAdj.Run(g.inMeta[v].Start, g.inMeta[v].Deg) {
			if u < 0 || u >= g.n {
				return fmt.Errorf("graph: in edge %d of node %d comes from invalid node %d", i, v, u)
			}
		}
	}
	if maxIn != g.maxInDeg {
		return fmt.Errorf("graph: cached max in-degree %d, want %d", g.maxInDeg, maxIn)
	}
	if g.uniformIn {
		if g.inP.Base != nil || g.inP.Over != nil || g.outP.Base != nil || g.outP.Over != nil || g.mixedIn != 0 {
			return fmt.Errorf("graph: uniform in-probability storage retains per-edge state")
		}
		if len(g.inProb) != int(g.n) || len(g.inTabOff) != int(g.n) {
			return fmt.Errorf("graph: inProb/inTabOff length %d/%d, want %d", len(g.inProb), len(g.inTabOff), g.n)
		}
		for v := int32(0); v < g.n; v++ {
			if g.InDegree(v) == 0 {
				continue
			}
			if p := g.inProb[v]; !(p > 0 && p <= 1) {
				return fmt.Errorf("graph: node %d in-probability %v outside (0,1]", v, p)
			}
		}
	} else {
		mixed := int32(0)
		for v := int32(0); v < g.n; v++ {
			_, ps := g.InNeighbors(v)
			for i, p := range ps {
				if !(p > 0 && p <= 1) {
					return fmt.Errorf("graph: in edge %d of node %d has probability %v outside (0,1]", i, v, p)
				}
			}
			if !sharedProb(ps) {
				mixed++
			}
		}
		if mixed != g.mixedIn || mixed == 0 {
			return fmt.Errorf("graph: per-edge storage with %d mixed nodes, recorded %d", mixed, g.mixedIn)
		}
	}
	// CSR adjacency must be sorted by neighbor ID (out by target, in by
	// source): the binary-searched EdgeProbability and deterministic
	// layouts rely on it.
	for u := int32(0); u < g.n; u++ {
		adj := g.OutTargets(u)
		for i := 1; i < len(adj); i++ {
			if adj[i-1] > adj[i] {
				return fmt.Errorf("graph: out-adjacency of node %d not sorted at %d", u, i)
			}
		}
		srcs := g.inAdj.Run(g.inMeta[u].Start, g.inMeta[u].Deg)
		for i := 1; i < len(srcs); i++ {
			if srcs[i-1] > srcs[i] {
				return fmt.Errorf("graph: in-adjacency of node %d not sorted at %d", u, i)
			}
		}
	}
	// Success-count tables, when present, must be nondecreasing threshold
	// runs terminated by the sentinel, and each node's metadata must cache
	// its table's first two entries (or the no-table conventions). The
	// raw arena is read here: a table without a sentinel runs on into it.
	if g.inTabOff != nil {
		for v := int32(0); v < g.n; v++ {
			var tab []uint32
			if off := g.inTabOff[v]; off >= 0 {
				tab = g.inTabThr[off:]
			}
			m := g.inMeta[v]
			want0, want1 := uint32(0), uint32(0)
			switch {
			case tab != nil:
				want0, want1 = tab[0], tab[1]
			case m.Deg == 0:
				want0, want1 = ^uint32(0), ^uint32(0)
			}
			if m.Thr0 != want0 || m.Thr1 != want1 {
				return fmt.Errorf("graph: node %d metadata thresholds %08x/%08x, want %08x/%08x",
					v, m.Thr0, m.Thr1, want0, want1)
			}
			if tab == nil {
				continue
			}
			prev := uint32(0)
			terminated := false
			for k, t := range tab {
				if t == ^uint32(0) {
					terminated = true
					break
				}
				if k > g.InDegree(v) {
					return fmt.Errorf("graph: node %d count table longer than degree", v)
				}
				if t < prev {
					return fmt.Errorf("graph: node %d count table decreases at %d", v, k)
				}
				prev = t
			}
			if !terminated {
				return fmt.Errorf("graph: node %d count table lacks a sentinel", v)
			}
		}
	}
	// Every out edge must have a matching in edge with the bit-identical
	// probability. An exact multiset match per (u,v) pair — not a
	// sum/subtract residual, which is order-dependent in floating point
	// and false-alarms on parallel edges ((a+b)−a−b ≠ 0).
	type key struct{ u, v NodeID }
	fwd := make(map[key][]float64, min(g.m, 1<<20))
	if g.m <= 1<<20 { // full check only on graphs where the map is affordable
		for u := int32(0); u < g.n; u++ {
			adj, ps := g.OutNeighbors(u)
			for i, v := range adj {
				fwd[key{u, v}] = append(fwd[key{u, v}], ps.Of(i, v))
			}
		}
		for v := int32(0); v < g.n; v++ {
			adj, ps := g.InNeighbors(v)
			for i, u := range adj {
				k := key{u, v}
				left := fwd[k]
				matched := false
				for j, p := range left {
					if p == ps[i] {
						left[j] = left[len(left)-1]
						fwd[k] = left[:len(left)-1]
						matched = true
						break
					}
				}
				if !matched {
					return fmt.Errorf("graph: in edge (%d,%d) p=%v has no matching out edge", u, v, ps[i])
				}
			}
		}
		for k, left := range fwd {
			if len(left) > 0 {
				return fmt.Errorf("graph: out edge (%d,%d) p=%v has no matching in edge", k.u, k.v, left[0])
			}
		}
	}
	return nil
}

// checkRuns verifies one direction's run index: every run lies inside one
// tier of the arena, no two non-empty runs overlap, the degrees sum to m,
// and baseLive of them lie in the base tier.
func checkRuns(dir string, n int32, m int64, a Arena[NodeID], baseLive int64, runOf func(NodeID) (lo, hi int32)) error {
	var sum, inBase int64
	split := len(a.Base)
	live := make([][2]int32, 0, n)
	for v := int32(0); v < n; v++ {
		lo, hi := runOf(v)
		if lo < 0 || hi < lo || int(hi) > a.Len() {
			return fmt.Errorf("graph: %s run [%d,%d) of node %d outside its arena of %d", dir, lo, hi, v, a.Len())
		}
		if int(lo) < split && int(hi) > split {
			return fmt.Errorf("graph: %s run [%d,%d) of node %d straddles the base end %d", dir, lo, hi, v, split)
		}
		sum += int64(hi - lo)
		if int(lo) < split {
			inBase += int64(hi - lo)
		}
		if hi > lo {
			live = append(live, [2]int32{lo, hi})
		}
	}
	if sum != m {
		return fmt.Errorf("graph: %s degree sum %d, want %d", dir, sum, m)
	}
	if inBase != baseLive {
		return fmt.Errorf("graph: %s base tier holds %d live entries, recorded %d", dir, inBase, baseLive)
	}
	slices.SortFunc(live, func(a, b [2]int32) int { return int(a[0]) - int(b[0]) })
	for i := 1; i < len(live); i++ {
		if live[i][0] < live[i-1][1] {
			return fmt.Errorf("graph: %s runs [%d,%d) and [%d,%d) overlap",
				dir, live[i-1][0], live[i-1][1], live[i][0], live[i][1])
		}
	}
	return nil
}

// sharedProb reports whether every probability in ps is the same.
func sharedProb(ps []float64) bool {
	for _, p := range ps {
		if p != ps[0] {
			return false
		}
	}
	return true
}
