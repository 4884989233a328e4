package oracle

import (
	"fmt"

	"repro/internal/graph"
)

// ExactLT enumerates the linear-threshold triggering model exactly: in
// the LT live-edge characterization every node independently picks at
// most one in-parent — edge (u,v) with probability p(u,v), or no parent
// with the remaining mass — and the spread of S is the expected number of
// nodes reachable from S over the picked edges. Cost is the product of
// (in-degree+1) over all nodes; the constructor refuses graphs beyond
// MaxExactLTWorlds. This is the LT counterpart of Exact (whose per-edge
// coin enumeration is IC semantics only) and serves as ground truth for
// the LT worked example and for validating the reverse/forward LT fast
// paths.
type ExactLT struct {
	g *graph.Graph
}

// MaxExactLTWorlds bounds the number of pick combinations ExactLT
// accepts, and MaxExactLTNodes the node count. Both gates are deliberately
// tight: adaptive greedy queries the oracle once per alive target per
// round, so a run makes O(|T|·rounds) ExpectedSpread calls and each call
// re-enumerates every world — the budget is worked-example-sized graphs,
// not "whatever finishes once".
const (
	MaxExactLTWorlds = 1 << 14
	MaxExactLTNodes  = 64
)

// NewExactLT builds an exact LT oracle for g.
func NewExactLT(g *graph.Graph) (*ExactLT, error) {
	if g.N() > MaxExactLTNodes {
		return nil, fmt.Errorf("oracle: exact LT enumeration infeasible for n=%d > %d", g.N(), MaxExactLTNodes)
	}
	worlds := 1.0
	for v := 0; v < g.N(); v++ {
		srcs, _ := g.InNeighbors(graph.NodeID(v))
		worlds *= float64(len(srcs) + 1)
		if worlds > MaxExactLTWorlds {
			return nil, fmt.Errorf("oracle: exact LT enumeration infeasible (> %d pick combinations)", MaxExactLTWorlds)
		}
	}
	return &ExactLT{g: g}, nil
}

// ExpectedSpread enumerates every combination of per-node parent picks on
// the residual view, weighting each by its probability. Dead nodes make
// no pick and conduct nothing; a pick of a dead parent is equivalent to
// no pick (the mass is not renormalized onto alive parents), matching the
// reverse sampler's semantics of dropping dead picks.
func (o *ExactLT) ExpectedSpread(res *graph.Residual, seeds []graph.NodeID) float64 {
	if res.Graph() != o.g {
		panic("oracle: residual belongs to a different graph")
	}
	n := o.g.N()
	type choice struct {
		parent graph.NodeID // -1 = no pick
		prob   float64
	}
	options := make([][]choice, n)
	for v := 0; v < n; v++ {
		rest := 1.0
		if res.Alive(graph.NodeID(v)) {
			srcs, ps := o.g.InNeighbors(graph.NodeID(v))
			for i, u := range srcs {
				if !res.Alive(u) {
					continue // dead parent: its mass folds into "no pick"
				}
				options[v] = append(options[v], choice{parent: u, prob: ps[i]})
				rest -= ps[i]
			}
		}
		if rest < 0 {
			rest = 0 // guard FP dust; Validate enforces Σp ≤ 1 per node
		}
		options[v] = append(options[v], choice{parent: -1, prob: rest})
	}
	aliveSeeds := make([]graph.NodeID, 0, len(seeds))
	for _, u := range seeds {
		if res.Alive(u) {
			aliveSeeds = append(aliveSeeds, u)
		}
	}
	total := 0.0
	picked := make([]graph.NodeID, n)
	visited := make([]bool, n)
	stack := make([]graph.NodeID, 0, n)
	// children inverts picked once per world, so the reachability walk is
	// O(n) per world instead of an O(n) scan per visited node.
	children := make([][]graph.NodeID, n)
	var walk func(v int, p float64)
	walk = func(v int, p float64) {
		if p == 0 {
			return
		}
		if v == n {
			// Spread = nodes reachable from the seeds along picked edges.
			for i := range children {
				children[i] = children[i][:0]
				visited[i] = false
			}
			for w, u := range picked {
				if u >= 0 {
					children[u] = append(children[u], graph.NodeID(w))
				}
			}
			stack = append(stack[:0], aliveSeeds...)
			count := 0
			for len(stack) > 0 {
				u := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if visited[u] {
					continue
				}
				visited[u] = true
				count++
				stack = append(stack, children[u]...)
			}
			total += float64(p * float64(count))
			return
		}
		for _, c := range options[v] {
			picked[v] = c.parent
			walk(v+1, p*c.prob)
		}
	}
	for i := range picked {
		picked[i] = -1
	}
	walk(0, 1)
	return total
}

// Spread is ExpectedSpread on the full graph (fresh residual), the common
// case for ground-truth checks.
func (o *ExactLT) Spread(seeds []graph.NodeID) float64 {
	return o.ExpectedSpread(graph.NewResidual(o.g), seeds)
}
