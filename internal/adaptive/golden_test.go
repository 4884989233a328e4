package adaptive

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/cascade"
	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// goldenMutateCounters is the pinned part of one mutated campaign.
type goldenMutateCounters struct {
	seeds                                   []graph.NodeID
	drawn, requested, reused                int64
	fallbacks, attempts, batches, certEarly int
}

func (c goldenMutateCounters) String() string {
	return fmt.Sprintf("seeds=%v drawn=%d requested=%d reused=%d fallbacks=%d attempts=%d batches=%d certified_early=%d",
		c.seeds, c.drawn, c.requested, c.reused, c.fallbacks, c.attempts, c.batches, c.certEarly)
}

// twoDeltaCampaign drives one campaign on inst with the experiment RNG
// discipline and a 2% churn delta after each of its first two observed
// rounds, re-sampling the realized world on the mutated graph in
// lockstep with the session's residual.
func twoDeltaCampaign(t *testing.T, inst *Instance, algo string, opts RunOptions, seed uint64) *RunResult {
	t.Helper()
	root := rng.New(seed)
	world := root.Split()
	sess, err := NewSession(inst, algo, opts, root.Split())
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnvironment(cascade.Sample(inst.G, inst.Model, world))
	for round := 1; ; round++ {
		u, stop, err := sess.NextSeed()
		if err != nil {
			t.Fatal(err)
		}
		if stop {
			break
		}
		if err := sess.Observe(env.Observe(u)); err != nil {
			t.Fatal(err)
		}
		if round > 2 {
			continue
		}
		ins, dels := gen.ChurnDeltas(sess.Instance().G, 0.02, rng.New(seed*1009+uint64(round)))
		if _, err := sess.Mutate(ins, dels); err != nil {
			t.Fatal(err)
		}
		rz := cascade.Sample(sess.Instance().G, inst.Model, rng.New(seed*2003+uint64(round)))
		env = NewEnvironmentAt(rz, sess.CloneResidual(), sess.Spread())
	}
	if sess.Mutations() != 2 {
		t.Fatalf("%s: campaign stopped after %d deltas, want 2", algo, sess.Mutations())
	}
	return sess.Result()
}

// TestPolicyReuseMutateGolden pins every sampling-policy × reuse cell of
// both sampling algorithms on a 600-node generated instance with two
// topology deltas per campaign: seeds, draw/request/reuse counts and the
// stopping-rule telemetry. The values were recorded from the separate
// sequential and fixed steppers before they merged into one; the only
// cells re-pinned since are sequential NoReuse's reuse counts, which
// counted delta survivors that the next round then discarded and now
// read 0.
func TestPolicyReuseMutateGolden(t *testing.T) {
	g, err := gen.Generate(gen.Config{Model: gen.PrefAttach, N: 600, AvgDeg: 5, Directed: true, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	inst, _, err := Prepare(g, cascade.IC, Setup{K: 15, CostSetting: cost.DegreeProportional, LBTheta: 5000, Seed: 29, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]goldenMutateCounters{
		"addatp/seq/noreuse=false":   {[]graph.NodeID{592, 591, 565, 443, 597, 546}, 65762, 65762, 221857, 4, 13, 7, 3},
		"addatp/seq/noreuse=true":    {[]graph.NodeID{592, 591, 565, 531, 546}, 282624, 282624, 0, 2, 30, 30, 2},
		"addatp/fixed/noreuse=false": {[]graph.NodeID{592, 591, 565, 546, 443, 597}, 535859, 535859, 2671126, 4, 31, 11, 2},
		"addatp/fixed/noreuse=true":  {[]graph.NodeID{592, 591, 565, 531, 546, 443}, 3123138, 3123138, 0, 4, 31, 31, 2},
		"hatp/seq/noreuse=false":     {[]graph.NodeID{592, 591, 574, 565}, 9174, 9174, 25427, 4, 11, 7, 1},
		"hatp/seq/noreuse=true":      {[]graph.NodeID{592, 591, 531, 565, 546, 523, 574, 430, 597}, 56503, 56503, 0, 9, 29, 29, 1},
		"hatp/fixed/noreuse=false":   {[]graph.NodeID{592, 591, 595, 597, 546}, 10482, 10482, 69874, 4, 28, 10, 1},
		"hatp/fixed/noreuse=true":    {[]graph.NodeID{592, 591, 546, 565, 597, 531, 443, 386}, 108869, 108869, 0, 6, 42, 42, 2},
	}
	for _, algo := range []string{AlgoADDATP, AlgoHATP} {
		for _, policy := range SamplingPolicies {
			for _, noReuse := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/noreuse=%v", algo, policy, noReuse)
				opts := RunOptions{Sampling: SamplingOptions{Policy: policy, NoReuse: noReuse, Workers: 2}}
				run := twoDeltaCampaign(t, inst, algo, opts, 41)
				got := goldenMutateCounters{
					seeds: run.Seeds, drawn: run.RRDrawn, requested: run.RRRequested, reused: run.RRReused,
					fallbacks: run.Fallbacks, attempts: run.Attempts, batches: run.RRBatches, certEarly: run.CertifiedEarly,
				}
				want, ok := golden[name]
				if !ok {
					t.Errorf("%s: no golden; got %s", name, got)
					continue
				}
				if !slices.Equal(got.seeds, want.seeds) || got.drawn != want.drawn || got.requested != want.requested ||
					got.reused != want.reused || got.fallbacks != want.fallbacks || got.attempts != want.attempts ||
					got.batches != want.batches || got.certEarly != want.certEarly {
					t.Errorf("%s:\n got %s\nwant %s", name, got, want)
				}
			}
		}
	}
}
