package adaptive

import (
	"testing"

	"repro/internal/cascade"
	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/rng"
)

// TestSamplingReuseMatchesWorkedExample: with cross-round reuse on
// (default), ADDATP and HATP must still reproduce the worked example's
// ground truth — profit 3 seeding {v2, v6} — while reporting nonzero
// reused-RR counts and drawing strictly fewer sets than the from-scratch
// NoReuse baseline.
func TestSamplingReuseMatchesWorkedExample(t *testing.T) {
	inst := fig1Instance(t)
	for _, algo := range []string{AlgoADDATP, AlgoHATP} {
		base := SamplingOptions{Zeta: 0.05, Eps: 0.2, Delta: 0.1, Workers: 1}

		reuseOpts := base
		withReuse, err := Run(inst, NewEnvironment(fig1Realization(inst.G)), algo,
			RunOptions{Sampling: reuseOpts}, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		noReuseOpts := base
		noReuseOpts.NoReuse = true
		without, err := Run(inst, NewEnvironment(fig1Realization(inst.G)), algo,
			RunOptions{Sampling: noReuseOpts}, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}

		if withReuse.Profit != 3 || withReuse.Spread != 6 {
			t.Fatalf("%s with reuse: profit %.2f spread %d, want 3 and 6 (seeds %v)",
				algo, withReuse.Profit, withReuse.Spread, withReuse.Seeds)
		}
		if withReuse.Profit != without.Profit {
			t.Fatalf("%s profit changed under reuse: %.2f vs %.2f", algo, withReuse.Profit, without.Profit)
		}
		if withReuse.RRReused <= 0 {
			t.Fatalf("%s reported no reused RR sets", algo)
		}
		if without.RRReused != 0 {
			t.Fatalf("%s NoReuse reported %d reused sets", algo, without.RRReused)
		}
		if withReuse.RRDrawn >= without.RRDrawn {
			t.Fatalf("%s drew %d with reuse vs %d without; reuse saved nothing",
				algo, withReuse.RRDrawn, without.RRDrawn)
		}
		if withReuse.RRPeakBytes <= 0 {
			t.Fatalf("%s peak RR bytes %d", algo, withReuse.RRPeakBytes)
		}
	}
}

// TestSamplingReuseDeterministicOnGenerated: reuse must preserve seeded
// determinism and report nonzero reuse on a generated instance (the
// nethept-style acceptance check, shrunk to test size).
func TestSamplingReuseDeterministicOnGenerated(t *testing.T) {
	g, err := gen.Generate(gen.Config{Model: gen.PrefAttach, N: 400, AvgDeg: 5, Directed: true, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	inst, _, err := Prepare(g, cascade.IC, Setup{K: 10, CostSetting: cost.DegreeProportional, LBTheta: 5000, Seed: 23, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	opts := RunOptions{Sampling: SamplingOptions{Workers: 2}}
	for _, algo := range []string{AlgoADDATP, AlgoHATP} {
		a, err := RunExperiment(inst, algo, 2, Churn{}, opts, 5)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunExperiment(inst, algo, 2, Churn{}, opts, 5)
		if err != nil {
			t.Fatal(err)
		}
		if a.AvgProfit != b.AvgProfit || a.RRDrawn != b.RRDrawn ||
			a.RRReused != b.RRReused || a.RRPeakBytes != b.RRPeakBytes {
			t.Fatalf("%s not deterministic: profit %v/%v rr %d/%d reused %d/%d peak %d/%d",
				algo, a.AvgProfit, b.AvgProfit, a.RRDrawn, b.RRDrawn,
				a.RRReused, b.RRReused, a.RRPeakBytes, b.RRPeakBytes)
		}
		if a.RRReused <= 0 {
			t.Fatalf("%s reused no RR sets on a multi-round instance", algo)
		}
	}
}
