package cascade

import (
	"repro/internal/graph"
	"repro/internal/rng"
)

// Spread returns I_φ(S): the number of nodes reachable from S along live
// edges of the realization. Seeds count themselves.
func Spread(rz *Realization, seeds []graph.NodeID) int {
	return SpreadOn(rz, nil, seeds)
}

// SpreadOn returns the spread of seeds restricted to a residual view:
// removed nodes neither activate nor relay influence. Seeds that are not
// alive contribute nothing. A nil res is the full graph.
func SpreadOn(rz *Realization, res *graph.Residual, seeds []graph.NodeID) int {
	return len(run(rz, res, make([]bool, rz.g.N()), seeds))
}

// Activate returns A(S), the nodes activated by seeding S under the
// realization on the residual view res, in BFS order with the alive seeds
// first, and removes each from res as it activates. The residual doubles
// as the visited set, so feedback allocates only the returned slice.
func Activate(rz *Realization, res *graph.Residual, seeds []graph.NodeID) []graph.NodeID {
	return run(rz, res, nil, seeds)
}

// run is the forward cascade behind Spread, SpreadOn and Activate. It
// returns the activated nodes in BFS order. A node is open while it is
// alive in res (always, for a nil res) and not yet activated; activating
// it marks it in seen or, when seen is nil, removes it from res. The
// queue holds the activated nodes followed by the live out-neighbors of
// the node at head, which are filtered in place to the open ones.
func run(rz *Realization, res *graph.Residual, seen []bool, seeds []graph.NodeID) []graph.NodeID {
	q := append(make([]graph.NodeID, 0, 16), seeds...)
	kept := 0
	for head := 0; ; head++ {
		for _, v := range q[kept:] {
			if seen == nil {
				if !res.Remove(v) {
					continue
				}
			} else {
				if seen[v] || res != nil && !res.Alive(v) {
					continue
				}
				seen[v] = true
			}
			q[kept] = v
			kept++
		}
		q = q[:kept]
		if head == len(q) {
			return q
		}
		q = rz.AppendLiveOut(q, q[head])
	}
}

// MonteCarloSpread estimates E[I(S)] on g by averaging Spread over reps
// fresh realizations. Deterministic given r's state.
func MonteCarloSpread(g *graph.Graph, model Model, seeds []graph.NodeID, reps int, r *rng.RNG) float64 {
	return MonteCarloSpreadOn(graph.NewResidual(g), model, seeds, reps, r)
}

// MonteCarloSpreadOn estimates the expected spread of seeds on a residual
// view of g. Realizations are drawn on the full graph; dead nodes are
// excluded from activation, which matches the paper's E[I_{G_i}(·)]
// because live edges incident to dead nodes can never fire.
func MonteCarloSpreadOn(res *graph.Residual, model Model, seeds []graph.NodeID, reps int, r *rng.RNG) float64 {
	if reps <= 0 {
		panic("cascade: MonteCarloSpreadOn needs reps > 0")
	}
	g := res.Graph()
	total := 0
	for i := 0; i < reps; i++ {
		rz := Sample(g, model, r)
		total += SpreadOn(rz, res, seeds)
	}
	return float64(total) / float64(reps)
}
