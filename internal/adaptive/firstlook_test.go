package adaptive

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cascade"
	"repro/internal/gen"
	"repro/internal/ris"
	"repro/internal/rng"
)

// withFreshFirstLook returns a copy of a prepared instance with an
// undrawn first look of its own, so a test can compare campaigns that
// grew the pool in different orders.
func withFreshFirstLook(inst *Instance) *Instance {
	cp := inst.on(inst.G)
	cp.first = ris.NewBase(inst.G, inst.Model, instFingerprint(cp), cp.targetIdx)
	return cp
}

// firstStep opens a campaign with the experiment RNG discipline, takes
// its first decision, and returns the session and the sampling
// accounting of that decision.
func firstStep(t *testing.T, inst *Instance, tc sessionCase, seed uint64) (*Session, ris.Stats) {
	t.Helper()
	root := rng.New(seed)
	root.Split() // the world's stream
	sess, err := NewSession(inst, tc.algo, tc.opts, root.Split())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.NextSeed(); err != nil {
		t.Fatal(err)
	}
	return sess, sess.Result().Stats
}

// TestFirstLookSharedAcrossCampaigns: sequential ADDATP/HATP campaigns on
// a prepared instance take their whole first round from its first look —
// nothing drawn, everything counted as reused — and a second campaign
// finds the pool already drawn. The fixed policy never touches it.
func TestFirstLookSharedAcrossCampaigns(t *testing.T) {
	inst := withFreshFirstLook(nethept005Instance(t, ""))
	for _, tc := range sessionCases() {
		if tc.algo != AlgoADDATP && tc.algo != AlgoHATP || tc.opts.Sampling.Policy != PolicySequential {
			continue
		}
		_, st := firstStep(t, inst, tc, 7)
		grown := inst.first.Len()
		if st.RRDrawn != 0 || st.RRRequested != 0 || st.RRReused < initialBatch || grown < int(st.RRReused) {
			t.Fatalf("%s first round: %+v with a first look of %d sets", tc.name, st, grown)
		}
		_, again := firstStep(t, inst, tc, 8)
		if again.RRDrawn != 0 || inst.first.Len() > max(grown, int(again.RRReused)+63) {
			t.Fatalf("%s second campaign: %+v, first look %d → %d sets", tc.name, again, grown, inst.first.Len())
		}
	}

	fixed := withFreshFirstLook(nethept005Instance(t, PolicyFixed))
	for _, algo := range []string{AlgoADDATP, AlgoHATP} {
		tc := sessionCase{algo, algo, RunOptions{Sampling: SamplingOptions{Policy: PolicyFixed, Workers: 2}}}
		if _, st := firstStep(t, fixed, tc, 7); st.RRDrawn == 0 || fixed.first.Len() != 0 {
			t.Fatalf("fixed %s: %+v, first look %d sets", algo, st, fixed.first.Len())
		}
	}
}

// TestFirstLookConcurrentSessionsMatchSequential: eight concurrent
// campaigns, ADDATP and HATP mixed, growing one instance's first look at
// once, each finish exactly as they do run one after another on an
// instance whose first look grew in another order. CI runs it under
// -race.
func TestFirstLookConcurrentSessionsMatchSequential(t *testing.T) {
	prepared := nethept005Instance(t, "")
	seq := RunOptions{Sampling: SamplingOptions{Policy: PolicySequential, Workers: 2}}
	cases := make([]sessionCase, 8)
	for i := range cases {
		algo := AlgoADDATP
		if i%2 == 1 {
			algo = AlgoHATP
		}
		cases[i] = sessionCase{fmt.Sprintf("%s-%d", algo, i), algo, seq}
	}
	want := make([]*RunResult, len(cases))
	inst := withFreshFirstLook(prepared)
	for i, tc := range cases {
		want[i] = batchReference(t, inst, tc, uint64(100+i))
	}
	shared := withFreshFirstLook(prepared)
	got := make([]*RunResult, len(cases))
	var wg sync.WaitGroup
	for i, tc := range cases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			root := rng.New(uint64(100 + i))
			env := NewEnvironment(cascade.Sample(shared.G, shared.Model, root.Split()))
			res, err := Run(shared, env, tc.algo, tc.opts, root.Split())
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = res
		}()
	}
	wg.Wait()
	for i, tc := range cases {
		if got[i] != nil {
			compareRuns(t, tc.name, got[i], want[i])
		}
	}
}

// TestFirstLookCheckpointBeforeFirstStep: a campaign checkpointed before
// its first step and resumed under another GOMAXPROCS (Workers 0) takes
// the same first look from the base and finishes as the uninterrupted
// run does.
func TestFirstLookCheckpointBeforeFirstStep(t *testing.T) {
	inst := nethept005Instance(t, "")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, algo := range []string{AlgoADDATP, AlgoHATP} {
		tc := sessionCase{algo, algo, RunOptions{Sampling: SamplingOptions{Policy: PolicySequential}}}
		ref := batchReference(t, inst, tc, 11)

		runtime.GOMAXPROCS(1)
		root := rng.New(11)
		env := NewEnvironment(cascade.Sample(inst.G, inst.Model, root.Split()))
		sess, err := NewSession(inst, algo, tc.opts, root.Split())
		if err != nil {
			t.Fatal(err)
		}
		blob, err := sess.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		runtime.GOMAXPROCS(4)
		if sess, err = ResumeSession(inst, blob, ResumeOptions{}); err != nil {
			t.Fatal(err)
		}
		u, stop, err := sess.NextSeed()
		if err != nil || stop {
			t.Fatalf("%s: first step (%d, %v, %v)", algo, u, stop, err)
		}
		if st := sess.Result().Stats; st.RRDrawn != 0 {
			t.Fatalf("%s: resumed first look drew %d sets instead of copying the base", algo, st.RRDrawn)
		}
		if err := sess.Observe(env.Observe(u)); err != nil {
			t.Fatal(err)
		}
		got, err := sess.Drive(env)
		if err != nil {
			t.Fatal(err)
		}
		compareRuns(t, algo+"/resumed before the first step", got, ref)
	}
}

// TestFirstLookContinuesAfterRestore: a campaign restored with its first
// seed pending holds the same first look as the original, still attached
// to the base, so a top-up on the untouched residual copies from the base
// in both, and neither draws.
func TestFirstLookContinuesAfterRestore(t *testing.T) {
	inst := nethept005Instance(t, "")
	tc := sessionCase{"hatp", AlgoHATP, RunOptions{Sampling: SamplingOptions{Policy: PolicySequential, Workers: 2}}}
	sess, _ := firstStep(t, inst, tc, 5)
	restored := roundTrip(t, inst, sess, ResumeOptions{})
	if restored.res.Version() != 0 {
		t.Fatalf("pending first seed, residual at version %d", restored.res.Version())
	}
	var stats [2]ris.Stats
	for i, s := range []*Session{sess, restored} {
		b := s.step.(*samplingStepper).b
		if _, err := b.GrowTo(s.res, rng.New(1), b.Len()+64, 2); err != nil {
			t.Fatal(err)
		}
		stats[i] = b.Stats()
	}
	if stats[0].RRDrawn != 0 || stats[1] != stats[0] {
		t.Fatalf("top-up after restore %+v, original %+v; want both copied from the base", stats[1], stats[0])
	}
}

// TestFirstLookNotTakenAfterMutate: a campaign mutated before its first
// step draws its first look on the new graph, exactly as the same
// campaign on an instance without a first look does.
func TestFirstLookNotTakenAfterMutate(t *testing.T) {
	prepared := nethept005Instance(t, "")
	bare := &Instance{G: prepared.G, Model: prepared.Model, Targets: prepared.Targets, Costs: prepared.Costs}
	for _, algo := range []string{AlgoADDATP, AlgoHATP} {
		tc := sessionCase{algo, algo, RunOptions{Sampling: SamplingOptions{Policy: PolicySequential, Workers: 2}}}
		run := func(inst *Instance) *RunResult {
			root := rng.New(23)
			env := NewEnvironment(cascade.Sample(inst.G, inst.Model, root.Split()))
			sess, err := NewSession(inst, algo, tc.opts, root.Split())
			if err != nil {
				t.Fatal(err)
			}
			ins, dels := gen.ChurnDeltas(inst.G, 0.02, rng.New(29))
			if _, err := sess.Mutate(ins, dels); err != nil {
				t.Fatal(err)
			}
			env.Follow(sess.Instance().G)
			res, err := sess.Drive(env)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		got := run(prepared)
		if got.RRDrawn < initialBatch {
			t.Fatalf("%s: mutated campaign drew only %d sets", algo, got.RRDrawn)
		}
		compareRuns(t, algo+"/mutated before the first step", got, run(bare))
	}
}
