package adaptive

import (
	"testing"

	"repro/internal/cascade"
	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/ris"
	"repro/internal/rng"
)

// fig1Graph is the paper's Fig. 1(a) graph (v1..v7 -> 0..6), the same
// transcription as in internal/cascade's tests.
func fig1Graph() *graph.Graph {
	return graph.MustFromEdges(7, true, []graph.Edge{
		{From: 0, To: 1, P: 0.4},
		{From: 1, To: 2, P: 0.8},
		{From: 1, To: 3, P: 0.7},
		{From: 3, To: 2, P: 0.6},
		{From: 2, To: 4, P: 0.5},
		{From: 4, To: 5, P: 0.3},
		{From: 5, To: 4, P: 0.7},
		{From: 5, To: 6, P: 0.6},
		{From: 6, To: 0, P: 0.2},
		{From: 4, To: 0, P: 0.7},
	})
}

// fig1Realization is the worked example's possible world: seeding v2
// activates {v2,v3,v4}, seeding v6 activates {v6,v5,v7}; everything else
// is dead. It must be built over the instance's own graph because the
// exact oracle checks graph identity.
func fig1Realization(g *graph.Graph) *cascade.Realization {
	return cascade.FromLiveEdges(g, []graph.Edge{
		{From: 1, To: 2}, // v2 -> v3
		{From: 1, To: 3}, // v2 -> v4
		{From: 3, To: 2}, // v4 -> v3
		{From: 5, To: 4}, // v6 -> v5
		{From: 5, To: 6}, // v6 -> v7
	})
}

// fig1Instance is the worked example's ATP instance: target set
// T = {v1, v2, v6} with uniform costs 1.5 each (c(T) = 4.5), so the
// adaptive profit is 3 and the nonadaptive (seed-all) profit is 2.5.
func fig1Instance(t *testing.T) *Instance {
	t.Helper()
	g := fig1Graph()
	targets := []graph.NodeID{0, 1, 5}
	costs, err := cost.Assign(g, targets, 4.5, cost.Uniform, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &Instance{G: g, Model: cascade.IC, Targets: targets, Costs: costs}
}

func seedSet(seeds []graph.NodeID) map[graph.NodeID]bool {
	m := make(map[graph.NodeID]bool, len(seeds))
	for _, u := range seeds {
		m[u] = true
	}
	return m
}

// TestADGWorkedExample reproduces the paper's Fig. 1 comparison against
// the exact oracle: adaptive greedy seeds {v2, v6} for realized profit 3,
// while seeding all of T realizes profit 2.5.
func TestADGWorkedExample(t *testing.T) {
	inst := fig1Instance(t)
	exact, err := oracle.NewExact(inst.G)
	if err != nil {
		t.Fatal(err)
	}
	adg, err := RunADG(inst, NewEnvironment(fig1Realization(inst.G)), exact)
	if err != nil {
		t.Fatal(err)
	}
	if adg.Profit != 3 || adg.Spread != 6 {
		t.Fatalf("ADG profit %.2f spread %d, want 3 and 6 (run %+v)", adg.Profit, adg.Spread, adg)
	}
	got := seedSet(adg.Seeds)
	if len(got) != 2 || !got[1] || !got[5] {
		t.Fatalf("ADG seeded %v, want {v2, v6} = {1, 5}", adg.Seeds)
	}

	non, err := Run(inst, NewEnvironment(fig1Realization(inst.G)), AlgoAllTargets, RunOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if non.Profit != 2.5 || non.Spread != 7 {
		t.Fatalf("all-targets profit %.2f spread %d, want 2.5 and 7", non.Profit, non.Spread)
	}
	if adg.Profit <= non.Profit {
		t.Fatalf("adaptive profit %.2f not above nonadaptive %.2f", adg.Profit, non.Profit)
	}
}

// TestSamplingPoliciesMatchExactOracle cross-validates ADDATP and HATP
// against the exact-oracle ground truth on the worked example: both must
// realize profit 3 by seeding exactly {v2, v6} (in either order — the two
// orders activate the same six nodes under this realization).
func TestSamplingPoliciesMatchExactOracle(t *testing.T) {
	inst := fig1Instance(t)
	opts := SamplingOptions{Zeta: 0.05, Eps: 0.2, Delta: 0.1, Workers: 1}
	for _, algo := range []string{AlgoADDATP, AlgoHATP} {
		run, err := Run(inst, NewEnvironment(fig1Realization(inst.G)), algo, RunOptions{Sampling: opts}, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		if run.Profit != 3 || run.Spread != 6 {
			t.Fatalf("%s profit %.2f spread %d, want 3 and 6 (seeds %v)", algo, run.Profit, run.Spread, run.Seeds)
		}
		got := seedSet(run.Seeds)
		if len(got) != 2 || !got[1] || !got[5] {
			t.Fatalf("%s seeded %v, want {1, 5}", algo, run.Seeds)
		}
		if run.RRDrawn <= 0 || run.RRRequested < run.RRDrawn {
			t.Fatalf("%s RR accounting drawn=%d requested=%d", algo, run.RRDrawn, run.RRRequested)
		}
	}
}

// TestNonadaptiveGreedyWorkedExample: on Fig. 1 the expected marginal
// profit of v1 given {v2, v6} is negative (≈ 0.37 − 1.5), so nonadaptive
// greedy keeps {v2, v6} and beats seeding all of T.
func TestNonadaptiveGreedyWorkedExample(t *testing.T) {
	inst := fig1Instance(t)
	run, err := Run(inst, NewEnvironment(fig1Realization(inst.G)), AlgoNSG,
		RunOptions{NSGTheta: 40_000, Sampling: SamplingOptions{Workers: 1}}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	got := seedSet(run.Seeds)
	if len(got) != 2 || !got[1] || !got[5] {
		t.Fatalf("nonadaptive greedy chose %v, want {1, 5}", run.Seeds)
	}
	if run.Profit != 3 {
		t.Fatalf("nonadaptive greedy profit %.2f, want 3 on this realization", run.Profit)
	}
}

// TestNSGReportsSamplerWork: the nonadaptive greedy draws through a
// ris.Batcher, so its run reports the sampler work of a Batcher drawing
// the same θ from the same stream — visits, edge touches, draws, one
// batch — and a peak that also covers the selection's node-to-set index.
func TestNSGReportsSamplerWork(t *testing.T) {
	inst := fig1Instance(t)
	const theta, workers = 5000, 2
	run, err := Run(inst, NewEnvironment(fig1Realization(inst.G)), AlgoNSG,
		RunOptions{NSGTheta: theta, Sampling: SamplingOptions{Workers: workers}}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	b := ris.NewBatcher(inst.Model)
	if _, err := b.GrowTo(graph.NewResidual(inst.G), rng.New(3), theta, workers); err != nil {
		t.Fatal(err)
	}
	want := b.Stats()
	if run.RRVisits <= 0 || run.RREdgeTouches <= 0 {
		t.Fatalf("NSG reported visits=%d edge touches=%d, want both > 0", run.RRVisits, run.RREdgeTouches)
	}
	if run.RRVisits != want.RRVisits || run.RREdgeTouches != want.RREdgeTouches ||
		run.RRDrawn != want.RRDrawn || run.RRRequested != want.RRRequested || run.RRBatches != 1 {
		t.Fatalf("NSG stats %+v, batcher draw of the same stream %+v", run.Stats, want)
	}
	if run.RRPeakBytes <= want.RRPeakBytes {
		t.Fatalf("NSG peak %d bytes does not cover the node-to-set index (draw alone: %d)", run.RRPeakBytes, want.RRPeakBytes)
	}
}

// TestDeterminism: two runs with the same seed must produce identical
// seed sequences (and identical accounting) for every policy.
func TestDeterminism(t *testing.T) {
	g, err := gen.Generate(gen.Config{Model: gen.PrefAttach, N: 300, AvgDeg: 5, Directed: true, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	inst, _, err := Prepare(g, cascade.IC, Setup{K: 10, CostSetting: cost.DegreeProportional, LBTheta: 5000, Seed: 21, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	opts := RunOptions{Sampling: SamplingOptions{Workers: 2}, ADGTheta: 2000, NSGTheta: 4000}
	for _, algo := range Algorithms {
		a, err := RunExperiment(inst, algo, 2, Churn{}, opts, 5)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		b, err := RunExperiment(inst, algo, 2, Churn{}, opts, 5)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		for i := range a.Runs {
			ra, rb := a.Runs[i], b.Runs[i]
			if len(ra.Seeds) != len(rb.Seeds) {
				t.Fatalf("%s run %d: %v vs %v", algo, i, ra.Seeds, rb.Seeds)
			}
			for j := range ra.Seeds {
				if ra.Seeds[j] != rb.Seeds[j] {
					t.Fatalf("%s run %d seed %d differs: %v vs %v", algo, i, j, ra.Seeds, rb.Seeds)
				}
			}
			if ra.Profit != rb.Profit || ra.RRDrawn != rb.RRDrawn {
				t.Fatalf("%s run %d: profit %v/%v rr %d/%d", algo, i, ra.Profit, rb.Profit, ra.RRDrawn, rb.RRDrawn)
			}
		}
	}
}

// TestPreparedInstanceProfitNonnegative: under the paper's spread-
// calibrated costs the adaptive policies should average nonnegative
// profit on a generated graph.
func TestPreparedInstanceProfitNonnegative(t *testing.T) {
	g, err := gen.Generate(gen.Config{Model: gen.PrefAttach, N: 400, AvgDeg: 5, Directed: true, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	inst, immRes, err := Prepare(g, cascade.IC, Setup{K: 15, CostSetting: cost.DegreeProportional, LBTheta: 20_000, Seed: 41, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(inst.Targets) != len(immRes.Seeds) {
		t.Fatalf("targets %d != IMM seeds %d", len(inst.Targets), len(immRes.Seeds))
	}
	opts := RunOptions{Sampling: SamplingOptions{Workers: 2}}
	for _, algo := range []string{AlgoADDATP, AlgoHATP} {
		rep, err := RunExperiment(inst, algo, 5, Churn{}, opts, 51)
		if err != nil {
			t.Fatal(err)
		}
		if rep.AvgProfit < 0 {
			t.Fatalf("%s average profit %.2f negative under calibrated costs", algo, rep.AvgProfit)
		}
		if rep.AvgSpread <= 0 || rep.AvgRounds <= 0 {
			t.Fatalf("%s degenerate report %+v", algo, rep)
		}
	}
}

// TestEnvironmentObservation: observing a seed removes its cascade and a
// dead seed activates nothing.
func TestEnvironmentObservation(t *testing.T) {
	env := NewEnvironment(fig1Realization(fig1Graph()))
	a := env.Observe(1)
	if len(a) != 3 {
		t.Fatalf("A(v2) = %v, want 3 nodes", a)
	}
	if env.Residual().Alive(2) {
		t.Fatal("v3 still alive after observation")
	}
	if again := env.Observe(1); len(again) != 0 {
		t.Fatalf("dead seed activated %v", again)
	}
	if env.Activated() != 3 {
		t.Fatalf("activated count %d, want 3", env.Activated())
	}
}

// TestHATPCheaperThanADDATP: at equal (ζ, δ) the hybrid bound's per-round
// sample size is linear in 1/ζ vs quadratic, so HATP must draw fewer RR
// sets than ADDATP on the same instance. This is a property of the
// paper's fixed-θ schedules — under the sequential controller both
// regimes share the anytime bound and differ only in the θ cap, so the
// claim is pinned to PolicyFixed.
func TestHATPCheaperThanADDATP(t *testing.T) {
	inst := fig1Instance(t)
	opts := RunOptions{Sampling: SamplingOptions{Policy: PolicyFixed, Zeta: 0.02, Eps: 0.3, Delta: 0.1, Workers: 1}}
	add, err := Run(inst, NewEnvironment(fig1Realization(inst.G)), AlgoADDATP, opts, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	hyb, err := Run(inst, NewEnvironment(fig1Realization(inst.G)), AlgoHATP, opts, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if hyb.RRDrawn >= add.RRDrawn {
		t.Fatalf("HATP drew %d RR sets, ADDATP %d; hybrid bound should be cheaper", hyb.RRDrawn, add.RRDrawn)
	}
}

func TestRunUnknownAlgorithm(t *testing.T) {
	inst := fig1Instance(t)
	if _, err := Run(inst, NewEnvironment(fig1Realization(inst.G)), "nope", RunOptions{}, rng.New(1)); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestInstanceValidate(t *testing.T) {
	inst := fig1Instance(t)
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Instance{G: inst.G, Targets: []graph.NodeID{99}, Costs: inst.Costs}
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-range target accepted")
	}
	if err := (&Instance{G: inst.G, Costs: inst.Costs}).Validate(); err == nil {
		t.Fatal("empty target set accepted")
	}
	many := &Instance{G: inst.G, Targets: make([]graph.NodeID, ris.MaxTargets+1), Costs: inst.Costs}
	if err := many.Validate(); err == nil {
		t.Fatal("more targets than coverage can count accepted")
	}
}

// TestTiesBreakTowardSmallerID pins the argmax tie-break of every
// selection loop. Targets 1 and 3 reach each other and every other node
// with certainty, so every RR set holds both and every spread estimate —
// exact, sampled or one-shot — ties them exactly; with equal costs their
// profits tie too. Listed larger-ID first, each policy must still seed
// node 1, which activates the whole graph and ends the campaign.
func TestTiesBreakTowardSmallerID(t *testing.T) {
	g := graph.MustFromEdges(4, true, []graph.Edge{
		{From: 1, To: 0, P: 1}, {From: 1, To: 2, P: 1}, {From: 1, To: 3, P: 1},
		{From: 3, To: 0, P: 1}, {From: 3, To: 1, P: 1}, {From: 3, To: 2, P: 1},
	})
	targets := []graph.NodeID{3, 1}
	costs, err := cost.Assign(g, targets, 2, cost.Uniform, nil)
	if err != nil {
		t.Fatal(err)
	}
	inst := &Instance{G: g, Model: cascade.IC, Targets: targets, Costs: costs}
	sampling := SamplingOptions{Zeta: 0.05, Eps: 0.2, Delta: 0.1, Workers: 1}
	for _, tc := range []struct {
		name, algo, policy string
	}{
		{"adg-exact", AlgoADG, ""},
		{"addatp-seq", AlgoADDATP, PolicySequential},
		{"addatp-fixed", AlgoADDATP, PolicyFixed},
		{"nsg", AlgoNSG, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := RunOptions{Sampling: sampling}
			opts.Sampling.Policy = tc.policy
			env := NewEnvironment(cascade.FromLiveEdges(g, g.Edges()))
			run, err := Run(inst, env, tc.algo, opts, rng.New(5))
			if err != nil {
				t.Fatal(err)
			}
			if len(run.Seeds) != 1 || run.Seeds[0] != 1 {
				t.Fatalf("seeded %v, want [1]", run.Seeds)
			}
		})
	}
}
