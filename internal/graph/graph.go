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
// pair into that direction's arena, not by contiguous offsets. Builder.Build
// lays the runs out back to back in node order, exactly sized. ApplyDelta
// keeps every untouched node's runs where they are and appends fresh runs
// for the touched nodes only, past the end of arenas shared along the
// graph's lineage (the chain of graphs derived from one another by
// ApplyDelta). Only the lineage tip — the last graph derived in place —
// may append, and it does so only past the visible length of every older
// graph, so no graph ever observes a write: graphs stay immutable and
// safe for concurrent readers. A delta on anything but the tip (a sibling
// derived from a shared base, such as every campaign's first delta) or
// one that changes the in-probability storage compacts the live runs into
// new arenas with doubled capacity, starting a new lineage; on the tip, a
// direction whose arena would fill up or grow past twice its live entries
// is compacted alone. A delta therefore costs O(N + Δ·deg) rather than
// O(M), amortized, and an arena never holds more than twice its live
// entries.
//
// In-probability storage is dual. Build detects when every node's
// in-edges share one probability — always true for the paper's
// weighted-cascade weighting p(u,v) = 1/indeg(v) and for uniform edge
// probabilities — and then compresses the per-edge array into a per-node
// one (InUniform / InNeighborsUniform): 8 bytes per node instead of per
// edge, ~550 MB less on livejournal-s's 69M edges. Compression also
// precomputes per-node success-count tables (InCountThresholds) and
// packed sampler metadata (InSamplerTables) that let RR-set samplers draw
// a node's successful in-edge count in O(1). Mixed-probability graphs
// (trivalency) keep the per-edge fallback and the accessor-based API.
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

	// Out-adjacency: the edges leaving node u occupy
	// outAdj[outRun[u].start:][:outRun[u].deg], probabilities in outP at
	// the same positions. The arenas may hold runs no node references
	// (see the package doc).
	outRun []span
	outAdj []NodeID
	outP   []float64

	// In-adjacency: the sources of the edges entering node v occupy
	// inAdj[inMeta[v].Start:][:inMeta[v].Deg]. Probability storage is
	// dual: when every node's in-edges share one probability (always true
	// for weighted-cascade and ApplyUniformProbability weightings) the
	// per-edge inP is dropped and a single per-node inProb is kept instead
	// — 8 bytes per node instead of 8 bytes per edge, which is what lets
	// livejournal-scale in-adjacency fit in memory. Mixed-probability
	// graphs (trivalency) keep the per-edge inP fallback, parallel to
	// inAdj; mixedIn counts their nodes whose in-edges do not share one
	// probability (0 exactly when uniformIn), so ApplyDelta can tell in
	// O(Δ) when a delta restores uniformity.
	inMeta    []InMeta
	inAdj     []NodeID
	inP       []float64 // per-edge; nil when uniformIn
	inProb    []float64 // per-node shared probability; nil unless uniformIn
	uniformIn bool
	mixedIn   int32

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
	// position in it: the graph may append to the shared arenas only
	// while lin's tip claim reads linGen (see ApplyDelta). nil for
	// Builder.Build output, whose arenas are exactly sized.
	lin    *lineage
	linGen uint64
}

// span locates one node's out-adjacency run: outAdj[start:start+deg].
type span struct {
	start, deg int32
}

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

// OutNeighbors returns the targets of edges leaving u and their
// probabilities. The returned slices alias internal storage and must not
// be modified.
func (g *Graph) OutNeighbors(u NodeID) ([]NodeID, []float64) {
	lo, hi := g.outRange(u)
	return g.outAdj[lo:hi:hi], g.outP[lo:hi:hi]
}

// InNeighbors returns the sources of edges entering v and their
// probabilities. With per-edge storage both slices alias internal arrays
// and must not be modified; with compressed per-node storage (InUniform)
// the probability slice is materialized on every call, so hot paths must
// go through InNeighborsUniform instead.
func (g *Graph) InNeighbors(v NodeID) ([]NodeID, []float64) {
	lo, hi := g.inRange(v)
	if !g.uniformIn {
		return g.inAdj[lo:hi:hi], g.inP[lo:hi:hi]
	}
	ps := make([]float64, hi-lo)
	p := g.inProb[v]
	for i := range ps {
		ps[i] = p
	}
	return g.inAdj[lo:hi:hi], ps
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
	lo, hi := g.inRange(v)
	return g.inAdj[lo:hi:hi], g.inProb[v], true
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
// samplers: per-node metadata, the shared in-adjacency arena, the
// success-count threshold arena, and the per-node table offsets into it
// (negative for nodes without a table — the cold complement to the
// Thr0/Thr1 cache in InMeta, consulted only when a visit draws two or
// more successes). meta is nil when the graph stores per-edge
// in-probabilities; callers must then use the accessor-based API. All
// four slices are read-only views of internal storage.
//
// On graphs derived by ApplyDelta the runs in the adjacency arena are not
// in node order, and the arena can hold runs no node references anymore
// (every entry is still a valid node ID, so a speculative read of any
// arena position is safe). Reach a node's sources only through its
// metadata's Start and Deg.
func (g *Graph) InSamplerTables() (meta []InMeta, arena []NodeID, thr []uint32, tabOff []int32) {
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
			edges = append(edges, Edge{From: u, To: v, P: ps[i]})
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
		return ps[i], true
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
	if len(g.outP) != len(g.outAdj) {
		return fmt.Errorf("graph: out arena lengths differ: adj=%d p=%d", len(g.outAdj), len(g.outP))
	}
	if !g.uniformIn && len(g.inP) != len(g.inAdj) {
		return fmt.Errorf("graph: in arena lengths differ: adj=%d p=%d", len(g.inAdj), len(g.inP))
	}
	// Every run must lie inside its arena, runs must not overlap, and the
	// degrees must sum to M in both directions.
	if err := checkRuns("out", g.n, g.m, len(g.outAdj), g.outRange); err != nil {
		return err
	}
	if err := checkRuns("in", g.n, g.m, len(g.inAdj), g.inRange); err != nil {
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
			if p := ps[i]; !(p > 0 && p <= 1) { // negated form also catches NaN
				return fmt.Errorf("graph: out edge (%d,%d) has probability %v outside (0,1]", v, u, p)
			}
		}
		lo, hi := g.inRange(v)
		for i, u := range g.inAdj[lo:hi] {
			if u < 0 || u >= g.n {
				return fmt.Errorf("graph: in edge %d of node %d comes from invalid node %d", i, v, u)
			}
		}
	}
	if maxIn != g.maxInDeg {
		return fmt.Errorf("graph: cached max in-degree %d, want %d", g.maxInDeg, maxIn)
	}
	if g.uniformIn {
		if g.inP != nil || g.mixedIn != 0 {
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
		adj, _ := g.OutNeighbors(u)
		for i := 1; i < len(adj); i++ {
			if adj[i-1] > adj[i] {
				return fmt.Errorf("graph: out-adjacency of node %d not sorted at %d", u, i)
			}
		}
		lo, hi := g.inRange(u)
		srcs := g.inAdj[lo:hi]
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
				fwd[key{u, v}] = append(fwd[key{u, v}], ps[i])
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

// checkRuns verifies one direction's run index: every run lies inside the
// arena, no two non-empty runs overlap, and the degrees sum to m.
func checkRuns(dir string, n int32, m int64, arenaLen int, runOf func(NodeID) (lo, hi int32)) error {
	var sum int64
	live := make([][2]int32, 0, n)
	for v := int32(0); v < n; v++ {
		lo, hi := runOf(v)
		if lo < 0 || hi < lo || int(hi) > arenaLen {
			return fmt.Errorf("graph: %s run [%d,%d) of node %d outside its arena of %d", dir, lo, hi, v, arenaLen)
		}
		sum += int64(hi - lo)
		if hi > lo {
			live = append(live, [2]int32{lo, hi})
		}
	}
	if sum != m {
		return fmt.Errorf("graph: %s degree sum %d, want %d", dir, sum, m)
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
