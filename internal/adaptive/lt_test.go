package adaptive

import (
	"testing"

	"repro/internal/cascade"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/rng"
)

// ltFig1Graph is the Fig. 1 topology with in-probabilities rescaled so
// every node's incoming weights sum to ≤ 1 — the LT validity condition
// Fig. 1's IC weights violate (v3's in-edges sum to 1.4). The structure
// keeps the two communities of the worked example: v2 drives {v3, v4},
// v6 drives {v5, v7}.
func ltFig1Graph() *graph.Graph {
	return graph.MustFromEdges(7, true, []graph.Edge{
		{From: 0, To: 1, P: 0.4},
		{From: 1, To: 2, P: 0.5},
		{From: 1, To: 3, P: 0.7},
		{From: 3, To: 2, P: 0.4},
		{From: 2, To: 4, P: 0.5},
		{From: 4, To: 5, P: 0.3},
		{From: 5, To: 4, P: 0.4},
		{From: 5, To: 6, P: 0.6},
		{From: 6, To: 0, P: 0.2},
		{From: 4, To: 0, P: 0.7},
	})
}

// ltFig1Realization is the LT worked example's possible world in the
// triggering characterization (each node picks at most one in-parent):
// v3 and v4 pick v2, v5 and v7 pick v6, everyone else picks nothing. So
// seeding v2 activates {v2,v3,v4} and seeding v6 activates {v6,v5,v7},
// mirroring the paper's IC worked example.
func ltFig1Realization(g *graph.Graph) *cascade.Realization {
	return cascade.FromLiveEdges(g, []graph.Edge{
		{From: 1, To: 2}, // v3 picks v2
		{From: 1, To: 3}, // v4 picks v2
		{From: 5, To: 4}, // v5 picks v6
		{From: 5, To: 6}, // v7 picks v6
	})
}

// ltFig1Instance is the LT worked example's ATP instance: the same
// T = {v1, v2, v6} with uniform costs 1.5 (c(T) = 4.5) as the IC worked
// example, under the LT model.
func ltFig1Instance(t *testing.T) *Instance {
	t.Helper()
	g := ltFig1Graph()
	targets := []graph.NodeID{0, 1, 5}
	costs, err := cost.Assign(g, targets, 4.5, cost.Uniform, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &Instance{G: g, Model: cascade.LT, Targets: targets, Costs: costs}
}

// TestADGWorkedExampleLT is the LT half of the worked example: adaptive
// greedy against the exact LT enumerator (oracle.ExactLT) seeds {v2, v6}
// for realized profit 3, beating the nonadaptive seed-all profit of 2.5
// on the same realization. Exact expected marginal profits on the full
// graph are ≈ 1.96 (v2), ≈ 1.30 (v6), ≈ 0.75 (v1); after observing v2's
// and v6's cascades only v1 is alive with expected spread 1 < 1.5, so
// the run stops at two seeds.
func TestADGWorkedExampleLT(t *testing.T) {
	inst := ltFig1Instance(t)
	adg, err := Run(inst, NewEnvironment(ltFig1Realization(inst.G)), AlgoADG, RunOptions{}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if adg.RRDrawn != 0 {
		t.Fatalf("ADG drew %d RR sets; the exact oracle should answer on this graph", adg.RRDrawn)
	}
	if adg.Profit != 3 || adg.Spread != 6 {
		t.Fatalf("LT ADG profit %.2f spread %d, want 3 and 6 (run %+v)", adg.Profit, adg.Spread, adg)
	}
	got := seedSet(adg.Seeds)
	if len(got) != 2 || !got[1] || !got[5] {
		t.Fatalf("LT ADG seeded %v, want {v2, v6} = {1, 5}", adg.Seeds)
	}

	non, err := Run(inst, NewEnvironment(ltFig1Realization(inst.G)), AlgoAllTargets, RunOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if non.Profit != 2.5 || non.Spread != 7 {
		t.Fatalf("LT all-targets profit %.2f spread %d, want 2.5 and 7", non.Profit, non.Spread)
	}
	if adg.Profit <= non.Profit {
		t.Fatalf("LT adaptive profit %.2f not above nonadaptive %.2f", adg.Profit, non.Profit)
	}
}

// TestRunADGSelectsExactLTOracle: Run must route small LT instances to
// the exact LT enumerator (zero RR draws), the way it routes small IC
// instances to the per-edge-coin enumerator.
func TestRunADGSelectsExactLTOracle(t *testing.T) {
	inst := ltFig1Instance(t)
	run, err := Run(inst, NewEnvironment(ltFig1Realization(inst.G)), AlgoADG, RunOptions{}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if run.RRDrawn != 0 {
		t.Fatalf("small LT ADG drew %d RR sets; should use the exact oracle", run.RRDrawn)
	}
	if run.Profit != 3 {
		t.Fatalf("LT ADG through Run: profit %.2f, want 3 (seeds %v)", run.Profit, run.Seeds)
	}
}

// TestSamplingPoliciesMatchExactLT cross-validates the RR-sampling
// policies under the LT model against the exact ground truth: both
// controllers of ADDATP and HATP must reproduce the worked example's
// profit 3 seeding exactly {v2, v6}.
func TestSamplingPoliciesMatchExactLT(t *testing.T) {
	inst := ltFig1Instance(t)
	for _, policy := range SamplingPolicies {
		opts := SamplingOptions{Policy: policy, Zeta: 0.05, Eps: 0.2, Delta: 0.1, Workers: 1}
		for _, algo := range []string{AlgoADDATP, AlgoHATP} {
			run, err := Run(inst, NewEnvironment(ltFig1Realization(inst.G)), algo, RunOptions{Sampling: opts}, rng.New(7))
			if err != nil {
				t.Fatal(err)
			}
			if run.Profit != 3 || run.Spread != 6 {
				t.Fatalf("%s/%s LT profit %.2f spread %d, want 3 and 6 (seeds %v)",
					algo, policy, run.Profit, run.Spread, run.Seeds)
			}
			got := seedSet(run.Seeds)
			if len(got) != 2 || !got[1] || !got[5] {
				t.Fatalf("%s/%s LT seeded %v, want {1, 5}", algo, policy, run.Seeds)
			}
		}
	}
}
