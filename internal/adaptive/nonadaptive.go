package adaptive

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/ris"
	"repro/internal/rng"
)

// NonadaptiveGreedySelect picks a subset S ⊆ T before any observation:
// on one RR collection over the full graph it greedily adds the target
// with the largest estimated marginal profit n·CovR(u|S)/θ − c(u),
// stopping when no remaining target's estimated marginal profit is
// positive. theta is the RR sample size, drawn by a fresh ris.Batcher on
// r; the returned Stats account for that draw, with RRPeakBytes covering
// the node-to-set index the selection builds.
func NonadaptiveGreedySelect(inst *Instance, theta int, r *rng.RNG, workers int) ([]graph.NodeID, ris.Stats, error) {
	if err := inst.Validate(); err != nil {
		return nil, ris.Stats{}, err
	}
	if theta <= 0 {
		return nil, ris.Stats{}, fmt.Errorf("adaptive: nonadaptive greedy needs theta > 0, got %d", theta)
	}
	b := ris.NewBatcher(inst.Model)
	if _, err := b.GrowTo(graph.NewResidual(inst.G), r, theta, workers); err != nil {
		return nil, b.Stats(), err
	}
	col, stats := b.Collection(), b.Stats()
	if col.Len() == 0 {
		return nil, stats, nil
	}
	n := float64(inst.G.N())
	perCov := n / float64(col.Len()) // spread per newly covered RR set
	marks := col.NewMarks()
	remaining := append([]graph.NodeID(nil), inst.Targets...)
	var chosen []graph.NodeID
	for len(remaining) > 0 {
		best := -1
		bestProfit := 0.0
		for i, u := range remaining {
			p := float64(float64(marks.Marginal(u))*perCov) - inst.Costs.Cost(u)
			if p > bestProfit || (p == bestProfit && best >= 0 && u < remaining[best]) {
				best, bestProfit = i, p
			}
		}
		if best < 0 || bestProfit <= 0 {
			break
		}
		marks.Cover(remaining[best])
		chosen = append(chosen, remaining[best])
		remaining = append(remaining[:best], remaining[best+1:]...)
	}
	stats.RRPeakBytes = max(stats.RRPeakBytes, col.Bytes())
	return chosen, stats, nil
}
