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
// sequential and fixed steppers before they merged into one. Since then
// sequential NoReuse's reuse counts were re-pinned to 0 (they counted
// delta survivors that the next round then discarded), and every cell
// was re-pinned when RR substreams became chunk-keyed; the values now
// hold at any worker count. The sequential cells were re-pinned again
// when the first round came to copy the prepared instance's shared first
// look (its sets count as reused, even under NoReuse) instead of drawing
// it from the campaign's stream.
func TestPolicyReuseMutateGolden(t *testing.T) {
	g, err := gen.Generate(gen.Config{Model: gen.PrefAttach, N: 600, AvgDeg: 5, Directed: true, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	inst, _, err := Prepare(g, cascade.IC, Setup{K: 15, CostSetting: cost.DegreeProportional, LBTheta: 5000, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]goldenMutateCounters{
		"addatp/seq/noreuse=false":   {[]graph.NodeID{592, 591, 565, 546, 443}, 65730, 65730, 213625, 4, 12, 5, 2},
		"addatp/seq/noreuse=true":    {[]graph.NodeID{592, 591, 565, 531, 546}, 278528, 278528, 4096, 3, 30, 28, 2},
		"addatp/fixed/noreuse=false": {[]graph.NodeID{592, 591, 565, 546, 443, 597}, 536425, 536425, 2670377, 5, 31, 11, 2},
		"addatp/fixed/noreuse=true":  {[]graph.NodeID{592, 591, 565, 531}, 1936520, 1936520, 0, 2, 21, 21, 2},
		"hatp/seq/noreuse=false":     {[]graph.NodeID{592, 591, 546, 597}, 4898, 4898, 29795, 4, 11, 5, 1},
		"hatp/seq/noreuse=true":      {[]graph.NodeID{592, 591, 565, 531}, 23292, 23292, 4096, 4, 14, 12, 1},
		"hatp/fixed/noreuse=false":   {[]graph.NodeID{592, 591, 546, 565, 443}, 9339, 9339, 58621, 4, 26, 10, 2},
		"hatp/fixed/noreuse=true":    {[]graph.NodeID{592, 591, 531, 565, 546, 597}, 87915, 87915, 0, 5, 33, 33, 1},
	}
	for _, algo := range []string{AlgoADDATP, AlgoHATP} {
		for _, policy := range SamplingPolicies {
			for _, noReuse := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/noreuse=%v", algo, policy, noReuse)
				opts := RunOptions{Sampling: SamplingOptions{Policy: policy, NoReuse: noReuse}}
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

// goldenADG is the pinned part of one large-graph ADG campaign.
type goldenADG struct {
	seeds                    []graph.NodeID
	spread                   int
	drawn, requested, reused int64
	visits, touches, peak    int64
}

func (c goldenADG) String() string {
	return fmt.Sprintf("seeds=%v spread=%d drawn=%d requested=%d reused=%d visits=%d touches=%d peak_bytes=%d",
		c.seeds, c.spread, c.drawn, c.requested, c.reused, c.visits, c.touches, c.peak)
}

// TestADGGolden pins ADG on a graph too large for exact enumeration, so
// it draws RR sets, in every model × reuse × topology cell at the
// default worker count: seeds, realized spread, draw/request/reuse
// counts, sampler work and the peak collection footprint.
func TestADGGolden(t *testing.T) {
	g, err := gen.Generate(gen.Config{Model: gen.PrefAttach, N: 600, AvgDeg: 5, Directed: true, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]goldenADG{
		"IC/noreuse=false/mutated=false": {[]graph.NodeID{592, 591, 565, 546}, 64, 11843, 11843, 38157, 28992, 17251, 397312},
		"IC/noreuse=false/mutated=true":  {[]graph.NodeID{592, 591, 546, 443, 565}, 70, 16750, 16750, 58067, 41605, 25356, 532480},
		"IC/noreuse=true/mutated=false":  {[]graph.NodeID{592, 591, 565, 531}, 58, 50000, 50000, 0, 114391, 66669, 212992},
		"IC/noreuse=true/mutated=true":   {[]graph.NodeID{592, 591, 565, 531}, 65, 50000, 50000, 0, 122165, 75751, 212992},
		"LT/noreuse=false/mutated=false": {[]graph.NodeID{592, 591, 565, 531, 546, 523, 487, 515, 386}, 92, 12880, 12880, 87120, 31384, 18711, 397312},
		"LT/noreuse=false/mutated=true":  {[]graph.NodeID{592, 591, 515, 597, 546}, 81, 17283, 17283, 57242, 42221, 25318, 532480},
		"LT/noreuse=true/mutated=false":  {[]graph.NodeID{592, 591, 565, 531, 546, 386, 523}, 82, 80000, 80000, 0, 180068, 105437, 212992},
		"LT/noreuse=true/mutated=true":   {[]graph.NodeID{592, 591, 597}, 64, 40000, 40000, 0, 94384, 56147, 212992},
	}
	for _, model := range []cascade.Model{cascade.IC, cascade.LT} {
		inst, _, err := Prepare(g, model, Setup{K: 15, CostSetting: cost.DegreeProportional, LBTheta: 5000, Seed: 29})
		if err != nil {
			t.Fatal(err)
		}
		for _, noReuse := range []bool{false, true} {
			for _, mutated := range []bool{false, true} {
				name := fmt.Sprintf("%v/noreuse=%v/mutated=%v", model, noReuse, mutated)
				opts := RunOptions{Sampling: SamplingOptions{NoReuse: noReuse}}
				var run *RunResult
				if mutated {
					run = twoDeltaCampaign(t, inst, AlgoADG, opts, 41)
				} else {
					root := rng.New(41)
					env := NewEnvironment(cascade.Sample(inst.G, inst.Model, root.Split()))
					if run, err = Run(inst, env, AlgoADG, opts, root.Split()); err != nil {
						t.Fatal(err)
					}
				}
				got := goldenADG{run.Seeds, run.Spread, run.RRDrawn, run.RRRequested, run.RRReused,
					run.RRVisits, run.RREdgeTouches, run.RRPeakBytes}
				want, ok := golden[name]
				if !ok {
					t.Errorf("%s: no golden; got %s", name, got)
					continue
				}
				if got.String() != want.String() {
					t.Errorf("%s:\n got %s\nwant %s", name, got, want)
				}
			}
		}
	}
}
