package adaptive

import (
	"slices"
	"testing"

	"repro/internal/cascade"
	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// nethept005Instance prepares the nethept-s fixture at scale 0.05 exactly
// the way `repro run --dataset nethept-s --scale 0.05 --seed 1` does.
// Workers is 0 (GOMAXPROCS): results depend on the seed only, so the
// goldens below hold at any core count (CI runs them at -cpu 1,4).
func nethept005Instance(t *testing.T, sampler string) *Instance {
	t.Helper()
	spec, err := gen.Lookup("nethept-s")
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.Generate(spec.Config(0.05))
	if err != nil {
		t.Fatal(err)
	}
	inst, _, err := Prepare(g, cascade.IC, Setup{
		K: 50, CostSetting: cost.DegreeProportional, Seed: 1, Sampler: sampler,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestFixedPolicyMatchesPreRefactorGolden pins `--sampler fixed` to the
// pre-controller implementation: the seed sequences, RR draw counts,
// reuse counts and fallbacks below were recorded from the attempt-loop
// code on main immediately before the sequential controller landed
// (nethept-s scale 0.05, Prepare seed 1, experiment seed 101).
// Any drift here means the fixed path is no longer the paper-faithful
// baseline the A/B comparisons claim it is. The values were re-pinned
// twice: when realizations became keyed (a seed then denotes a different
// world, and TestFixedGoldenWorldOnly shows the policy itself did not
// move), and when RR substreams became chunk-keyed (a seed then denotes
// different RR sets, the same at every worker count).
func TestFixedPolicyMatchesPreRefactorGolden(t *testing.T) {
	inst := nethept005Instance(t, PolicyFixed)
	golden := map[string]struct {
		seeds     [][]graph.NodeID
		rrDrawn   []int64
		rrReused  []int64
		fallbacks []int
	}{
		AlgoADDATP: {
			seeds: [][]graph.NodeID{
				{3, 4, 18, 2, 9, 11, 1, 7, 0, 65, 97, 171, 104, 269, 61, 86, 225, 179, 69, 17, 39, 80, 99, 36},
				{3, 4, 2, 16, 11, 18, 1, 7, 65, 86, 55, 60, 97, 115, 130, 80, 45, 119, 61, 32, 31, 46, 269, 239, 35, 12, 171},
			},
			rrDrawn:   []int64{835680, 797312},
			rrReused:  []int64{11581361, 14279813},
			fallbacks: []int{10, 13},
		},
		AlgoHATP: {
			seeds: [][]graph.NodeID{
				{3, 5, 30, 18, 1, 4, 7, 65, 55, 133, 104, 54, 14, 17, 239, 171, 46, 269, 99, 179, 225, 45, 80, 86, 6, 111, 39, 119, 69, 35},
				{2, 7, 1, 3, 18, 65, 36, 55, 10, 46, 86, 130, 35, 61, 80, 60, 32, 239, 45, 40, 269, 30, 97, 119, 27},
			},
			rrDrawn:   []int64{15733, 13718},
			rrReused:  []int64{437527, 343650},
			fallbacks: []int{21, 15},
		},
	}
	for algo, want := range golden {
		rep, err := RunExperiment(inst, algo, 2, Churn{}, RunOptions{
			Sampling: SamplingOptions{Policy: PolicyFixed},
		}, 101)
		if err != nil {
			t.Fatal(err)
		}
		for i, run := range rep.Runs {
			if len(run.Seeds) != len(want.seeds[i]) {
				t.Fatalf("%s run %d: %d seeds %v, golden %v", algo, i, len(run.Seeds), run.Seeds, want.seeds[i])
			}
			for j := range run.Seeds {
				if run.Seeds[j] != want.seeds[i][j] {
					t.Fatalf("%s run %d seed %d: %v, golden %v", algo, i, j, run.Seeds, want.seeds[i])
				}
			}
			if run.RRDrawn != want.rrDrawn[i] || run.RRReused != want.rrReused[i] || run.Fallbacks != want.fallbacks[i] {
				t.Fatalf("%s run %d: drawn=%d reused=%d fallbacks=%d, golden %d/%d/%d",
					algo, i, run.RRDrawn, run.RRReused, run.Fallbacks,
					want.rrDrawn[i], want.rrReused[i], want.fallbacks[i])
			}
			if run.Sampler != PolicyFixed {
				t.Fatalf("%s run %d labeled %q", algo, i, run.Sampler)
			}
		}
	}
}

// TestFixedGoldenWorldOnly runs the golden campaigns on their keyed
// worlds and on the same worlds materialized as explicit live-edge lists
// (cascade.FromLiveEdges): seeds, draw and reuse counts and fallbacks
// must match exactly, so the keyed re-pin of the golden above moved the
// worlds and nothing else.
func TestFixedGoldenWorldOnly(t *testing.T) {
	inst := nethept005Instance(t, PolicyFixed)
	opts := RunOptions{Sampling: SamplingOptions{Policy: PolicyFixed}}
	for _, algo := range []string{AlgoADDATP, AlgoHATP} {
		// RunExperiment's stream discipline for realization 0 of seed 101.
		root := rng.New(101)
		world, algoRNG := root.Split(), root.Split()
		algoState := *algoRNG
		keyed := cascade.Sample(inst.G, inst.Model, world)
		var live []graph.Edge
		for u := graph.NodeID(0); int(u) < inst.G.N(); u++ {
			for _, v := range keyed.AppendLiveOut(nil, u) {
				live = append(live, graph.Edge{From: u, To: v})
			}
		}
		want, err := Run(inst, NewEnvironment(keyed), algo, opts, algoRNG)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(inst, NewEnvironment(cascade.FromLiveEdges(inst.G, live)), algo, opts, &algoState)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Seeds, want.Seeds) || got.Spread != want.Spread ||
			got.RRDrawn != want.RRDrawn || got.RRReused != want.RRReused || got.Fallbacks != want.Fallbacks {
			t.Fatalf("%s: materialized world seeded %v (spread %d, drawn %d, reused %d, fallbacks %d), keyed %v (%d, %d, %d, %d)",
				algo, got.Seeds, got.Spread, got.RRDrawn, got.RRReused, got.Fallbacks,
				want.Seeds, want.Spread, want.RRDrawn, want.RRReused, want.Fallbacks)
		}
	}
}

// TestSequentialDrawsFewerThanFixed is the nethept-s guard for the
// controller's reason to exist: on the same prepared instance and the
// same realization pool, the sequential policy must generate strictly
// fewer RR sets than the fixed attempt loop for both sampling algorithms
// — by a wide margin for ADDATP, whose Hoeffding θ ∝ 1/ζ² is what the
// anytime empirical-Bernstein bound short-circuits.
func TestSequentialDrawsFewerThanFixed(t *testing.T) {
	inst := nethept005Instance(t, PolicySequential)
	for _, algo := range []string{AlgoADDATP, AlgoHATP} {
		var drawn [2]int64
		var profit [2]float64
		for i, policy := range []string{PolicyFixed, PolicySequential} {
			rep, err := RunExperiment(inst, algo, 2, Churn{}, RunOptions{
				Sampling: SamplingOptions{Policy: policy, Workers: 2},
			}, 101)
			if err != nil {
				t.Fatal(err)
			}
			drawn[i], profit[i] = rep.RRDrawn, rep.AvgProfit
		}
		if drawn[1] >= drawn[0] {
			t.Fatalf("%s: sequential drew %d RR sets, fixed %d", algo, drawn[1], drawn[0])
		}
		if algo == AlgoADDATP && drawn[1]*3 > drawn[0] {
			t.Fatalf("ADDATP: sequential drew %d vs fixed %d, want ≥ 3× reduction", drawn[1], drawn[0])
		}
		// The policies may disagree on borderline rounds, but not on the
		// run's economics: realized profit must stay in the same range.
		if profit[1] < profit[0]/2 || profit[1] > profit[0]*2 {
			t.Fatalf("%s: sequential profit %.2f far from fixed %.2f", algo, profit[1], profit[0])
		}
	}
}

// TestSequentialTelemetryInvariants checks the new counters the
// controller threads into RunResult: looks happen, batches are a subset
// of looks, every round resolves as either a certification or a
// fallback, and the sampler label round-trips.
func TestSequentialTelemetryInvariants(t *testing.T) {
	inst := fig1Instance(t)
	run, err := Run(inst, NewEnvironment(fig1Realization(inst.G)), AlgoADDATP,
		RunOptions{Sampling: SamplingOptions{Workers: 1}}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if run.Sampler != PolicySequential {
		t.Fatalf("default sampler %q, want %q", run.Sampler, PolicySequential)
	}
	if run.Attempts <= 0 || run.RRBatches <= 0 {
		t.Fatalf("no looks/batches recorded: %+v", run)
	}
	if run.RRBatches > run.Attempts {
		t.Fatalf("more batches (%d) than looks (%d)", run.RRBatches, run.Attempts)
	}
	decisions := run.CertifiedEarly + run.Fallbacks
	// Every seeding round plus the final stop is one decision; decisions
	// certified exactly at the frontier are counted in neither bucket.
	if decisions > run.Rounds+1 {
		t.Fatalf("decisions %d exceed rounds+1 = %d", decisions, run.Rounds+1)
	}
	if run.CertifiedEarly == 0 {
		t.Fatalf("worked example should certify its clear-cut rounds early: %+v", run)
	}
}
