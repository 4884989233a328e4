// Package cascade implements influence propagation: sampling realizations
// (the paper's possible worlds φ), running forward cascades under a fixed
// realization, observing per-seed activations A(u) on residual graphs, and
// Monte-Carlo spread estimation.
//
// Both the Independent Cascade (IC) model — the paper's model — and the
// Linear Threshold (LT) model are supported. Both are triggering models,
// so realizations, reverse-reachable sets and all concentration bounds
// carry over between them unchanged.
//
// Realizations are keyed possible worlds. Sample draws one 64-bit key and
// nothing else; every coin of the world is a hash of the key and the
// coin's identity, evaluated when a cascade first reaches it. Under the
// paper's full-adoption feedback a policy reads φ only through A(u), the
// live out-edges of nodes that actually activate, so sampling is O(1) and
// a cascade costs time proportional to the out-edges of the nodes it
// activates. Because a coin depends on the key and the edge or node it
// decides, not on the graph around it, one key denotes the same world on
// every graph of a lineage derived by graph.ApplyDelta: a topology delta
// changes the world only where it changes the graph.
package cascade

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Model selects the diffusion model.
type Model int

const (
	// IC is the Independent Cascade model: each edge (u,v) is live
	// independently with probability p(u,v).
	IC Model = iota
	// LT is the Linear Threshold model in its triggering form: each node v
	// picks at most one live in-edge, edge (u,v) with probability p(u,v)
	// (requires sum of in-probabilities <= 1, which the weighted-cascade
	// weighting guarantees).
	LT
)

func (m Model) String() string {
	switch m {
	case IC:
		return "IC"
	case LT:
		return "LT"
	default:
		return fmt.Sprintf("model(%d)", int(m))
	}
}

// Realization is one possible world φ: the subgraph of live edges.
//
// A sampled realization is keyed: its live edges are decided on demand.
// Under IC the k-th parallel copy of edge (u,v) is live iff
// unit(hash(key, u, v, k)) < p(u,v), with k counted among the copies of
// (u,v) in u's out-adjacency. Under LT node v's in-parent is the prefix
// pick of the uniform unit(hash(key, v)) over v's in-list, exactly as an
// eagerly sampled world picks it from a stream draw. FromLiveEdges builds
// the explicit form instead, a CSR over a given live-edge list.
type Realization struct {
	g     *graph.Graph
	model Model
	key   uint64
	// outIdx and outAdj hold the explicit form's live out-edges; outIdx
	// is nil for a keyed realization.
	outIdx []int32
	outAdj []graph.NodeID
}

// Sample draws a realization of g under the given model: one 64-bit world
// key from r, in O(1). The same key on a graph derived from g by
// ApplyDelta gives the same world on every edge the delta left alone.
func Sample(g *graph.Graph, model Model, r *rng.RNG) *Realization {
	if model != IC && model != LT {
		panic(fmt.Sprintf("cascade: unknown model %v", model))
	}
	return &Realization{g: g, model: model, key: r.Uint64()}
}

// On returns the same keyed world on h, a graph of rz's lineage over the
// same node set (typically an ApplyDelta descendant of rz's graph): the
// key is kept, so only coins of edges the delta changed and LT parents of
// nodes whose in-list it changed can differ. It panics on an explicit
// realization, which has no key to carry over, or a different node count.
func (rz *Realization) On(h *graph.Graph) *Realization {
	if rz.outIdx != nil {
		panic("cascade: On needs a keyed realization")
	}
	if h.N() != rz.g.N() {
		panic(fmt.Sprintf("cascade: world of a %d-node graph moved onto a %d-node graph", rz.g.N(), h.N()))
	}
	return &Realization{g: h, model: rz.model, key: rz.key}
}

// FromLiveEdges builds a realization from an explicit live-edge list.
// Used by tests and by the exact oracle's world enumeration.
func FromLiveEdges(g *graph.Graph, live []graph.Edge) *Realization {
	n := g.N()
	rz := &Realization{g: g, model: IC, outIdx: make([]int32, n+1)}
	perNode := make([][]graph.NodeID, n)
	for _, e := range live {
		perNode[e.From] = append(perNode[e.From], e.To)
	}
	for u := 0; u < n; u++ {
		rz.outAdj = append(rz.outAdj, perNode[u]...)
		rz.outIdx[u+1] = int32(len(rz.outAdj))
	}
	return rz
}

// Graph returns the underlying graph.
func (rz *Realization) Graph() *graph.Graph { return rz.g }

// Model returns the diffusion model the realization was drawn under.
func (rz *Realization) Model() Model { return rz.model }

// AppendLiveOut appends the live out-neighbors of u under this
// realization to dst, in out-adjacency order, and returns the extended
// slice. Under IC a target appears once per live parallel copy (copies
// are adjacent, since adjacency runs are sorted by neighbor); under LT at
// most once.
func (rz *Realization) AppendLiveOut(dst []graph.NodeID, u graph.NodeID) []graph.NodeID {
	if rz.outIdx != nil {
		return append(dst, rz.outAdj[rz.outIdx[u]:rz.outIdx[u+1]]...)
	}
	adj, ps := rz.g.OutNeighbors(u)
	if rz.model == IC {
		hu := nodeHash(rz.key, u)
		var k uint64 // v's ordinal among the parallel copies of (u,v)
		for i, v := range adj {
			if i > 0 && adj[i-1] == v {
				k++
			} else {
				k = 0
			}
			if unit(edgeHash(hu, v, k)) < ps.Of(i, v) {
				dst = append(dst, v)
			}
		}
		return dst
	}
	for i, v := range adj {
		if (i == 0 || adj[i-1] != v) && rz.ltPicks(u, v) {
			dst = append(dst, v)
		}
	}
	return dst
}

// nodeHash is output v of the SplitMix64 stream keyed by key: LT's
// per-node uniform, and the per-source stream key of IC's edge coins.
func nodeHash(key uint64, v graph.NodeID) uint64 {
	return rng.Mix64(key + uint64(v)*rng.Golden)
}

// edgeHash is IC's coin for the k-th parallel copy of edge (u,v), given
// hu = nodeHash(key, u): output (k<<32 | v) of the stream keyed by hu.
// Node IDs are below 2^31, so distinct (v, k) never share an output.
func edgeHash(hu uint64, v graph.NodeID, k uint64) uint64 {
	return rng.Mix64(hu + (k<<32|uint64(v))*rng.Golden)
}

// unit maps 64 hash bits to a uniform float64 in [0, 1) the way
// rng.RNG.Float64 maps a stream draw: the top 53 bits.
func unit(h uint64) float64 {
	return float64(h>>11) / (1 << 53)
}

// ltPicks reports whether v's LT in-parent is u. The parent is the prefix
// pick of v's uniform over its in-list: one division on compressed
// in-probability storage, a scan of the cumulative in-probabilities on
// per-edge storage.
func (rz *Realization) ltPicks(u, v graph.NodeID) bool {
	x := unit(nodeHash(rz.key, v))
	if srcs, p, ok := rz.g.InNeighborsUniform(v); ok {
		i := rng.PrefixIndex(x, p, len(srcs))
		return i >= 0 && srcs[i] == u
	}
	srcs, ps := rz.g.InNeighbors(v)
	acc := 0.0
	for i, w := range srcs {
		acc += ps[i]
		if x < acc {
			return w == u
		}
	}
	return false
}
