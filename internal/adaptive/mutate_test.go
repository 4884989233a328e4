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

// mutatedSteppedRun drives a session with a topology delta applied after
// every observed round: churn 1% of the edges (gen.ChurnDeltas, seeded
// deterministically per round), re-sample the realized world on the
// mutated graph in lockstep with the session's residual, and continue.
// When checkpoint is true, the session is additionally serialized and
// restored at every boundary — before each proposal, while the proposal
// is pending, and immediately after each delta — always onto the BASE
// instance, so the restore exercises the checkpoint's delta-log replay.
func mutatedSteppedRun(t *testing.T, base *Instance, tc sessionCase, seed uint64, checkpoint bool) *RunResult {
	t.Helper()
	root := rng.New(seed)
	world := root.Split()
	algoRNG := root.Split()
	env := NewEnvironment(cascade.Sample(base.G, base.Model, world))
	sess, err := NewSession(base, tc.algo, tc.opts, algoRNG)
	if err != nil {
		t.Fatalf("NewSession %s: %v", tc.name, err)
	}
	round := 0
	touchedSomething := false
	for {
		if checkpoint {
			sess = roundTrip(t, base, sess, ResumeOptions{})
		}
		u, stop, err := sess.NextSeed()
		if err != nil {
			t.Fatalf("NextSeed %s round %d: %v", tc.name, round, err)
		}
		if stop {
			break
		}
		if checkpoint {
			sess = roundTrip(t, base, sess, ResumeOptions{})
			u2, stop2, err := sess.NextSeed()
			if err != nil || stop2 || u2 != u {
				t.Fatalf("pending seed not restored: got (%d,%v,%v), want (%d,false,nil)", u2, stop2, err, u)
			}
		}
		if err := sess.Observe(env.Observe(u)); err != nil {
			t.Fatalf("Observe %s round %d: %v", tc.name, round, err)
		}
		round++

		// Churn the topology between rounds; the delta is a deterministic
		// function of (current graph, round), identical across the
		// checkpointed and straight-through runs.
		cur := sess.Instance().G
		ins, dels := gen.ChurnDeltas(cur, 0.01, rng.New(seed*1009+uint64(round)))
		dres, err := sess.Mutate(ins, dels)
		if err != nil {
			t.Fatalf("Mutate %s round %d: %v", tc.name, round, err)
		}
		if len(dres.Touched) > 0 {
			touchedSomething = true
		}
		if got := sess.Instance().G.Epoch(); got != int64(round) || sess.Mutations() != round {
			t.Fatalf("%s round %d: epoch %d, mutations %d", tc.name, round, got, sess.Mutations())
		}
		if checkpoint {
			// The boundary the satellite is about: a checkpoint taken
			// immediately after a delta must replay it on restore.
			sess = roundTrip(t, base, sess, ResumeOptions{})
		}
		// Re-sample the realized world on the mutated graph, residual view
		// in lockstep with the session's.
		rz := cascade.Sample(sess.Instance().G, base.Model, rng.New(seed*2003+uint64(round)))
		env = NewEnvironmentAt(rz, sess.CloneResidual(), sess.Spread())
	}
	if !sess.Done() {
		t.Fatalf("%s: session not done after stop", tc.name)
	}
	if round > 0 && !touchedSomething {
		t.Fatalf("%s: %d deltas touched nothing; churn too weak to test invalidation", tc.name, round)
	}
	return sess.Result()
}

// TestSessionCheckpointWithMutations: for every algorithm and sampling
// policy, a campaign mutated between every pair of rounds and
// checkpoint/restored at every boundary — including immediately after a
// delta — finishes identically to the same mutated campaign run straight
// through. Restores always target the base instance, so this pins the
// checkpoint delta log end to end: serialize, replay via ApplyDelta,
// re-home the residual, resume sampling bit-identically.
func TestSessionCheckpointWithMutations(t *testing.T) {
	inst := nethept005Instance(t, "")
	for _, tc := range sessionCases() {
		ref := mutatedSteppedRun(t, inst, tc, 7, false)
		got := mutatedSteppedRun(t, inst, tc, 7, true)
		compareRuns(t, tc.name+"/mutate", got, ref)
	}
}

// TestSessionCheckpointLongDeltaLog: a campaign that takes a burst of 1%
// churn deltas between two rounds checkpoints a delta log long enough
// that ResumeSession's replay outgrows the arenas its first delta
// compacted into — the chained deltas after it append more in-adjacency
// entries than the M spare slots those arenas hold — so the replay both
// appends in place and compacts again. The restored campaign must still
// finish seed-identically to the uninterrupted one.
func TestSessionCheckpointLongDeltaLog(t *testing.T) {
	inst := nethept005Instance(t, "")
	tc := sessionCase{"addatp-seq", AlgoADDATP, RunOptions{Sampling: SamplingOptions{Policy: PolicySequential, Workers: 2}}}
	const burst = 40
	run := func(checkpoint bool) (res *RunResult, appended int64) {
		root := rng.New(11)
		world := root.Split()
		algoRNG := root.Split()
		env := NewEnvironment(cascade.Sample(inst.G, inst.Model, world))
		sess, err := NewSession(inst, tc.algo, tc.opts, algoRNG)
		if err != nil {
			t.Fatal(err)
		}
		for round := 1; ; round++ {
			u, stop, err := sess.NextSeed()
			if err != nil {
				t.Fatalf("NextSeed round %d: %v", round, err)
			}
			if stop {
				if round <= 2 {
					t.Fatalf("campaign stopped after %d rounds; the burst must land mid-campaign", round-1)
				}
				break
			}
			if err := sess.Observe(env.Observe(u)); err != nil {
				t.Fatalf("Observe round %d: %v", round, err)
			}
			if round != 1 {
				continue
			}
			for i := 0; i < burst; i++ {
				ins, dels := gen.ChurnDeltas(sess.Instance().G, 0.01, rng.New(uint64(1000+i)))
				dres, err := sess.Mutate(ins, dels)
				if err != nil {
					t.Fatalf("Mutate %d: %v", i, err)
				}
				if i == 0 {
					continue
				}
				// An in-place delta appends every touched node's new in-run.
				for _, v := range dres.Touched {
					appended += int64(sess.Instance().G.InDegree(v))
				}
			}
			if checkpoint {
				sess = roundTrip(t, inst, sess, ResumeOptions{})
			}
			rz := cascade.Sample(sess.Instance().G, inst.Model, rng.New(2003))
			env = NewEnvironmentAt(rz, sess.CloneResidual(), sess.Spread())
		}
		return sess.Result(), appended
	}
	ref, appended := run(false)
	if appended <= inst.G.M() {
		t.Fatalf("the burst appends %d in-adjacency entries, within the %d spare slots: replay would never compact again",
			appended, inst.G.M())
	}
	got, _ := run(true)
	compareRuns(t, "long-delta-log", got, ref)
}

// TestSessionMutateExactOracle covers the exact-enumeration ADG oracle
// across deltas on the worked example: the oracle is rebuilt on each
// mutated graph (edge-count-conserving churn keeps it within the
// enumeration bound), straight-through and checkpointed runs agree, and
// no RR sets are ever drawn.
func TestSessionMutateExactOracle(t *testing.T) {
	inst := fig1Instance(t)
	tc := sessionCase{name: "adg-exact", algo: AlgoADG, opts: RunOptions{}}
	ref := mutatedSteppedRun(t, inst, tc, 3, false)
	got := mutatedSteppedRun(t, inst, tc, 3, true)
	compareRuns(t, tc.name+"/mutate", got, ref)
	if ref.RRDrawn != 0 {
		t.Fatalf("exact-oracle ADG drew %d RR sets; wrong oracle selected", ref.RRDrawn)
	}
}

// TestSessionMutateContract pins the misuse errors and the quiescence
// requirement: no mutating over a pending proposal, a finished campaign,
// or with a delta the graph rejects — and a rejected delta leaves the
// session fully usable.
func TestSessionMutateContract(t *testing.T) {
	inst := fig1Instance(t)
	sess, err := NewSession(inst, AlgoAllTargets, RunOptions{}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	u, stop, err := sess.NextSeed()
	if err != nil || stop {
		t.Fatalf("NextSeed: (%v, %v)", stop, err)
	}
	if _, err := sess.Mutate(nil, nil); err == nil {
		t.Fatal("Mutate with a pending seed succeeded")
	}
	if err := sess.Observe([]graph.NodeID{u}); err != nil {
		t.Fatal(err)
	}
	// A rejected delta (absent delete) must not advance the epoch.
	if _, err := sess.Mutate(nil, []graph.Edge{{From: 0, To: 1}, {From: 0, To: 1}, {From: 0, To: 1}}); err == nil {
		t.Fatal("Mutate deleting more parallels than exist succeeded")
	}
	if sess.Mutations() != 0 {
		t.Fatalf("rejected delta logged: %d mutations", sess.Mutations())
	}
	if _, err := sess.Mutate([]graph.Edge{{From: 0, To: 6, P: 0.5}}, nil); err != nil {
		t.Fatalf("valid mutate: %v", err)
	}
	if sess.Mutations() != 1 || sess.Instance().G.Epoch() != 1 {
		t.Fatalf("mutation not logged: %d mutations, epoch %d", sess.Mutations(), sess.Instance().G.Epoch())
	}
	rz := cascade.Sample(sess.Instance().G, inst.Model, rng.New(9))
	env := NewEnvironmentAt(rz, sess.CloneResidual(), sess.Spread())
	for {
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
	}
	if _, err := sess.Mutate(nil, nil); err == nil {
		t.Fatal("Mutate on a finished campaign succeeded")
	}
}

// TestEnvironmentFollowMatchesResample: after each topology delta,
// Environment.Follow must reveal exactly what the construction it
// replaces reveals — the world re-sampled on the new graph from a copy of
// the realization's world stream, wrapped around a clone of the session's
// residual — under both diffusion models. all-targets seeds every target,
// so most observations happen on mutated graphs.
func TestEnvironmentFollowMatchesResample(t *testing.T) {
	g, err := gen.Generate(gen.Config{Model: gen.PrefAttach, N: 600, AvgDeg: 5, Directed: true, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []cascade.Model{cascade.IC, cascade.LT} {
		inst, _, err := Prepare(g, model, Setup{K: 15, CostSetting: cost.Uniform, LBTheta: 5000, Seed: 29})
		if err != nil {
			t.Fatal(err)
		}
		root := rng.New(41)
		worldRNG := root.Split()
		world := *worldRNG
		sess, err := NewSession(inst, AlgoAllTargets, RunOptions{}, root.Split())
		if err != nil {
			t.Fatal(err)
		}
		followed := NewEnvironment(cascade.Sample(inst.G, inst.Model, worldRNG))
		ref := followed
		mutatedReveals := 0
		for round := 1; ; round++ {
			u, stop, err := sess.NextSeed()
			if err != nil {
				t.Fatal(err)
			}
			if stop {
				break
			}
			got := followed.Observe(u)
			if ref != followed {
				if want := ref.Observe(u); !slices.Equal(got, want) {
					t.Fatalf("%v round %d: Follow activated %v, re-sampled world %v", model, round, got, want)
				}
				mutatedReveals += len(got)
			}
			if err := sess.Observe(got); err != nil {
				t.Fatal(err)
			}
			if followed.Activated() != sess.Spread() {
				t.Fatalf("%v round %d: environment activated %d, session spread %d", model, round, followed.Activated(), sess.Spread())
			}
			ins, dels := gen.ChurnDeltas(sess.Instance().G, 0.05, rng.New(uint64(round)))
			if _, err := sess.Mutate(ins, dels); err != nil {
				t.Fatal(err)
			}
			followed.Follow(sess.Instance().G)
			w := world
			ref = NewEnvironmentAt(cascade.Sample(sess.Instance().G, inst.Model, &w), sess.CloneResidual(), sess.Spread())
		}
		if sess.Mutations() < 2 || mutatedReveals <= sess.Mutations() {
			t.Fatalf("%v: %d deltas, %d nodes revealed after one; too weak to compare worlds", model, sess.Mutations(), mutatedReveals)
		}
	}
}
