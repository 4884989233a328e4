// Package cost implements the paper's seeding-cost models (§VI-A).
//
// Costs are spread-calibrated: a target set T is chosen first, a lower
// bound E_l[I(T)] of its expected spread is estimated, and the total
// budget c(T) = E_l[I(T)] is distributed over T either proportionally to
// out-degree, uniformly, or at random. Under this calibration the
// baseline profit ρ(T) = E[I(T)] − c(T) ≥ 0, the nonnegativity
// assumption the approximation guarantees need. (The paper's second,
// predefined-λ procedure, which costs every node of V first, is not
// implemented: no experiment here uses it.)
package cost

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Setting selects the per-node cost distribution.
type Setting int

const (
	// DegreeProportional distributes the budget proportionally to each
	// node's out-degree (nodes with zero out-degree get the minimum share;
	// see Assign).
	DegreeProportional Setting = iota
	// Uniform gives every node the same cost.
	Uniform
	// Random distributes the budget by normalized uniform random weights.
	Random
)

func (s Setting) String() string {
	switch s {
	case DegreeProportional:
		return "degree-proportional"
	case Uniform:
		return "uniform"
	case Random:
		return "random"
	default:
		return fmt.Sprintf("setting(%d)", int(s))
	}
}

// Model maps nodes to seeding costs. Nodes without an assigned cost are
// free only in the sense of Cost returning 0; algorithms only query nodes
// in their target set, which always have costs.
type Model struct {
	costs map[graph.NodeID]float64
}

// Cost returns c(u).
func (m *Model) Cost(u graph.NodeID) float64 { return m.costs[u] }

// Total returns c(S) = Σ_{u∈S} c(u).
func (m *Model) Total(s []graph.NodeID) float64 {
	t := 0.0
	for _, u := range s {
		t += m.costs[u]
	}
	return t
}

// Len returns the number of nodes with assigned costs.
func (m *Model) Len() int { return len(m.costs) }

// Assign distributes the total budget over the nodes of set per the
// setting. Degree-proportional weights use out-degree + 1 so zero-degree
// nodes still carry cost (a free seed would break the unconstrained-
// submodular analysis and does not occur in the paper's setups).
func Assign(g *graph.Graph, set []graph.NodeID, total float64, setting Setting, r *rng.RNG) (*Model, error) {
	if len(set) == 0 {
		return nil, fmt.Errorf("cost: empty node set")
	}
	if total <= 0 {
		return nil, fmt.Errorf("cost: total budget %v must be positive", total)
	}
	weights := make([]float64, len(set))
	switch setting {
	case DegreeProportional:
		for i, u := range set {
			weights[i] = float64(g.OutDegree(u) + 1)
		}
	case Uniform:
		for i := range set {
			weights[i] = 1
		}
	case Random:
		if r == nil {
			return nil, fmt.Errorf("cost: random setting needs an RNG")
		}
		for i := range set {
			// Strictly positive weights so no node is free.
			weights[i] = r.Float64() + 1e-9
		}
	default:
		return nil, fmt.Errorf("cost: unknown setting %v", setting)
	}
	sum := 0.0
	for _, w := range weights {
		sum += w
	}
	m := &Model{costs: make(map[graph.NodeID]float64, len(set))}
	for i, u := range set {
		m.costs[u] = total * weights[i] / sum
	}
	return m, nil
}
