package adaptive

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/ris"
	"repro/internal/rng"
)

// NonadaptiveGreedySelect picks a subset S ⊆ T before any observation:
// on one RR collection over the full graph it greedily adds the target
// with the largest estimated marginal profit n·CovR(u|S)/θ − c(u),
// stopping when no remaining target's estimated marginal profit is
// positive. theta is the RR sample size.
func NonadaptiveGreedySelect(inst *Instance, theta int, r *rng.RNG, workers int) ([]graph.NodeID, *ris.Collection, int64, error) {
	if err := inst.Validate(); err != nil {
		return nil, nil, 0, err
	}
	if theta <= 0 {
		return nil, nil, 0, fmt.Errorf("adaptive: nonadaptive greedy needs theta > 0, got %d", theta)
	}
	res := graph.NewResidual(inst.G)
	start := time.Now()
	col := ris.NewSamplerPool(inst.Model).Generate(res, r, theta, workers)
	samplingNS := time.Since(start).Nanoseconds()
	if col.Len() == 0 {
		return nil, col, samplingNS, nil
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
			p := float64(marks.Marginal(u))*perCov - inst.Costs.Cost(u)
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
	return chosen, col, samplingNS, nil
}
