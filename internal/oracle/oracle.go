package oracle

import (
	"fmt"

	"repro/internal/cascade"
	"repro/internal/graph"
)

// Oracle answers expected-spread queries on a residual view.
type Oracle interface {
	// ExpectedSpread returns (an estimate of) E[I_{G_i}(S)] where G_i is
	// the residual view res and dead seeds contribute nothing.
	ExpectedSpread(res *graph.Residual, seeds []graph.NodeID) float64
}

// Exact enumerates every realization of the underlying graph. Cost is
// O(2^m · (n+m)); the constructor refuses graphs beyond maxEdges.
type Exact struct {
	g     *graph.Graph
	edges []graph.Edge
}

// MaxExactEdges bounds the edge count Exact accepts (2^20 worlds).
const MaxExactEdges = 20

// NewExact builds an exact oracle for g.
func NewExact(g *graph.Graph) (*Exact, error) {
	if g.M() > MaxExactEdges {
		return nil, fmt.Errorf("oracle: exact enumeration infeasible for m=%d > %d", g.M(), MaxExactEdges)
	}
	return &Exact{g: g, edges: g.Edges()}, nil
}

// ExpectedSpread enumerates all live-edge subsets, weighting each world by
// its probability.
func (o *Exact) ExpectedSpread(res *graph.Residual, seeds []graph.NodeID) float64 {
	if res.Graph() != o.g {
		panic("oracle: residual belongs to a different graph")
	}
	m := len(o.edges)
	total := 0.0
	live := make([]graph.Edge, 0, m)
	for mask := 0; mask < 1<<m; mask++ {
		p := 1.0
		live = live[:0]
		for i, e := range o.edges {
			if mask&(1<<i) != 0 {
				p *= e.P
				live = append(live, e)
			} else {
				p *= 1 - e.P
			}
		}
		if p == 0 {
			continue
		}
		rz := cascade.FromLiveEdges(o.g, live)
		total += float64(p * float64(cascade.SpreadOn(rz, res, seeds)))
	}
	return total
}
