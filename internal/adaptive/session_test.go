package adaptive

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cascade"
	"repro/internal/graph"
	"repro/internal/ris"
	"repro/internal/rng"
)

// sessionCase is one (algorithm, sampling options) combination the
// equivalence tests sweep.
type sessionCase struct {
	name string
	algo string
	opts RunOptions
}

func sessionCases() []sessionCase {
	seq := RunOptions{Sampling: SamplingOptions{Policy: PolicySequential, Workers: 2}}
	fixed := RunOptions{Sampling: SamplingOptions{Policy: PolicyFixed, Workers: 2}}
	return []sessionCase{
		{"adg", AlgoADG, RunOptions{Sampling: SamplingOptions{Workers: 2}, ADGTheta: 2000}},
		{"addatp-seq", AlgoADDATP, seq},
		{"addatp-fixed", AlgoADDATP, fixed},
		{"hatp-seq", AlgoHATP, seq},
		{"hatp-fixed", AlgoHATP, fixed},
		{"nsg", AlgoNSG, RunOptions{Sampling: SamplingOptions{Workers: 2}, NSGTheta: 4000}},
		{"all-targets", AlgoAllTargets, RunOptions{}},
	}
}

// batchReference runs the batch entry point with the experiment RNG
// discipline (world split, then algorithm split, both off one root).
func batchReference(t *testing.T, inst *Instance, tc sessionCase, seed uint64) *RunResult {
	t.Helper()
	root := rng.New(seed)
	world := root.Split()
	algoRNG := root.Split()
	env := NewEnvironment(cascade.Sample(inst.G, inst.Model, world))
	ref, err := Run(inst, env, tc.algo, tc.opts, algoRNG)
	if err != nil {
		t.Fatalf("batch %s: %v", tc.name, err)
	}
	return ref
}

// roundTrip serializes the session and rebuilds it from the blob.
func roundTrip(t *testing.T, inst *Instance, s *Session, ropts ResumeOptions) *Session {
	t.Helper()
	blob, err := s.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if len(blob) != cap(blob) {
		t.Fatalf("checkpoint len %d, cap %d: not sized exactly", len(blob), cap(blob))
	}
	restored, err := ResumeSession(inst, blob, ropts)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	return restored
}

// steppedRun drives a Session by hand with the same RNG discipline as
// batchReference. When churn is true, the session is checkpointed and
// restored at EVERY round boundary — once before each NextSeed and once
// again while the proposal is pending — so every byte of mid-campaign
// state proves it survives serialization.
func steppedRun(t *testing.T, inst *Instance, tc sessionCase, seed uint64, churn bool) *RunResult {
	t.Helper()
	root := rng.New(seed)
	world := root.Split()
	algoRNG := root.Split()
	env := NewEnvironment(cascade.Sample(inst.G, inst.Model, world))
	sess, err := NewSession(inst, tc.algo, tc.opts, algoRNG)
	if err != nil {
		t.Fatalf("NewSession %s: %v", tc.name, err)
	}
	for {
		if churn {
			sess = roundTrip(t, inst, sess, ResumeOptions{})
		}
		u, stop, err := sess.NextSeed()
		if err != nil {
			t.Fatalf("NextSeed %s: %v", tc.name, err)
		}
		if stop {
			break
		}
		if churn {
			sess = roundTrip(t, inst, sess, ResumeOptions{})
			u2, stop2, err := sess.NextSeed()
			if err != nil || stop2 || u2 != u {
				t.Fatalf("pending seed not restored: got (%d,%v,%v), want (%d,false,nil)", u2, stop2, err, u)
			}
		}
		if err := sess.Observe(env.Observe(u)); err != nil {
			t.Fatalf("Observe %s: %v", tc.name, err)
		}
	}
	if !sess.Done() {
		t.Fatalf("%s: session not done after stop", tc.name)
	}
	return sess.Result()
}

// compareRuns checks every deterministic field. SamplingNS is wall clock;
// RRPeakBytes is capacity-based (ris.Collection.Bytes), and a donated warm
// batcher keeps the capacities of whatever it held before, so neither is
// pinned.
func compareRuns(t *testing.T, name string, got, want *RunResult) {
	t.Helper()
	if got.Algorithm != want.Algorithm {
		t.Errorf("%s: algorithm %q != %q", name, got.Algorithm, want.Algorithm)
	}
	if len(got.Seeds) != len(want.Seeds) {
		t.Fatalf("%s: %d seeds, want %d (%v vs %v)", name, len(got.Seeds), len(want.Seeds), got.Seeds, want.Seeds)
	}
	for i := range want.Seeds {
		if got.Seeds[i] != want.Seeds[i] {
			t.Fatalf("%s: seed %d is %d, want %d (%v vs %v)", name, i, got.Seeds[i], want.Seeds[i], got.Seeds, want.Seeds)
		}
	}
	if got.Rounds != want.Rounds || got.Spread != want.Spread || got.Cost != want.Cost || got.Profit != want.Profit {
		t.Errorf("%s: outcome (rounds=%d spread=%d cost=%v profit=%v), want (rounds=%d spread=%d cost=%v profit=%v)",
			name, got.Rounds, got.Spread, got.Cost, got.Profit, want.Rounds, want.Spread, want.Cost, want.Profit)
	}
	if got.RRDrawn != want.RRDrawn || got.RRRequested != want.RRRequested || got.RRReused != want.RRReused {
		t.Errorf("%s: sampling (drawn=%d requested=%d reused=%d), want (drawn=%d requested=%d reused=%d)",
			name, got.RRDrawn, got.RRRequested, got.RRReused, want.RRDrawn, want.RRRequested, want.RRReused)
	}
	if got.RRVisits != want.RRVisits || got.RREdgeTouches != want.RREdgeTouches {
		t.Errorf("%s: sampler work (visits=%d edge touches=%d), want (visits=%d edge touches=%d)",
			name, got.RRVisits, got.RREdgeTouches, want.RRVisits, want.RREdgeTouches)
	}
	if got.Fallbacks != want.Fallbacks || got.Attempts != want.Attempts || got.RRBatches != want.RRBatches ||
		got.CertifiedEarly != want.CertifiedEarly || got.Sampler != want.Sampler {
		t.Errorf("%s: telemetry (fb=%d att=%d batches=%d early=%d sampler=%q), want (fb=%d att=%d batches=%d early=%d sampler=%q)",
			name, got.Fallbacks, got.Attempts, got.RRBatches, got.CertifiedEarly, got.Sampler,
			want.Fallbacks, want.Attempts, want.RRBatches, want.CertifiedEarly, want.Sampler)
	}
}

// TestSessionSteppedMatchesBatch: hand-stepping a Session produces the
// same run as the batch entry point, for every algorithm and sampling
// policy.
func TestSessionSteppedMatchesBatch(t *testing.T) {
	inst := nethept005Instance(t, "")
	for _, tc := range sessionCases() {
		ref := batchReference(t, inst, tc, 7)
		got := steppedRun(t, inst, tc, 7, false)
		compareRuns(t, tc.name, got, ref)
	}
}

// TestSessionCheckpointEveryRound: a session checkpointed and restored at
// every round boundary — including mid-proposal — finishes with a run
// identical to the uninterrupted batch run. This is the contract the
// serve daemon's kill/restart/resume path depends on.
func TestSessionCheckpointEveryRound(t *testing.T) {
	inst := nethept005Instance(t, "")
	for _, tc := range sessionCases() {
		ref := batchReference(t, inst, tc, 7)
		got := steppedRun(t, inst, tc, 7, true)
		compareRuns(t, tc.name+"/churn", got, ref)
	}
}

// TestSessionCheckpointAcrossCoreCounts: with Workers = 0 (GOMAXPROCS), a
// campaign that runs two rounds and checkpoints on a one-core host, then
// resumes on a four-core one, finishes identical to an uninterrupted run
// at the test's own GOMAXPROCS. The worker count is parallelism only, not
// part of the determinism contract.
func TestSessionCheckpointAcrossCoreCounts(t *testing.T) {
	inst := nethept005Instance(t, "")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range sessionCases() {
		tc.opts.Sampling.Workers = 0
		ref := batchReference(t, inst, tc, 7)

		runtime.GOMAXPROCS(1)
		root := rng.New(7)
		env := NewEnvironment(cascade.Sample(inst.G, inst.Model, root.Split()))
		sess, err := NewSession(inst, tc.algo, tc.opts, root.Split())
		if err != nil {
			t.Fatalf("NewSession %s: %v", tc.name, err)
		}
		for round := 0; round < 2 && !sess.Done(); round++ {
			u, stop, err := sess.NextSeed()
			if err != nil {
				t.Fatalf("NextSeed %s: %v", tc.name, err)
			}
			if !stop {
				if err := sess.Observe(env.Observe(u)); err != nil {
					t.Fatalf("Observe %s: %v", tc.name, err)
				}
			}
		}
		blob, err := sess.Checkpoint()
		if err != nil {
			t.Fatalf("checkpoint %s: %v", tc.name, err)
		}

		runtime.GOMAXPROCS(4)
		if sess, err = ResumeSession(inst, blob, ResumeOptions{}); err != nil {
			t.Fatalf("resume %s: %v", tc.name, err)
		}
		for {
			u, stop, err := sess.NextSeed()
			if err != nil {
				t.Fatalf("NextSeed %s: %v", tc.name, err)
			}
			if stop {
				break
			}
			if err := sess.Observe(env.Observe(u)); err != nil {
				t.Fatalf("Observe %s: %v", tc.name, err)
			}
		}
		compareRuns(t, tc.name+"/gomaxprocs 1->4", sess.Result(), ref)
	}
}

// TestSessionCheckpointExactOracle covers the exact-oracle ADG path
// (stateless oracle, rebuilt from the instance on resume) on the paper's
// worked example.
func TestSessionCheckpointExactOracle(t *testing.T) {
	inst := fig1Instance(t)
	tc := sessionCase{name: "adg-exact", algo: AlgoADG, opts: RunOptions{}}
	ref := batchReference(t, inst, tc, 3)
	got := steppedRun(t, inst, tc, 3, true)
	compareRuns(t, tc.name, got, ref)
	if ref.RRDrawn != 0 {
		t.Fatalf("exact-oracle ADG drew %d RR sets; wrong oracle selected", ref.RRDrawn)
	}
}

// TestSessionResumeWithWarmBatcher: donating a dirty warm batcher to the
// resume path must not change the run (the batcher is Reset before the
// restored state lands in it), under either sampling policy.
func TestSessionResumeWithWarmBatcher(t *testing.T) {
	inst := nethept005Instance(t, "")
	for _, tc := range []sessionCase{
		{name: "addatp-seq", algo: AlgoADDATP,
			opts: RunOptions{Sampling: SamplingOptions{Policy: PolicySequential, Workers: 2}}},
		{name: "hatp-fixed", algo: AlgoHATP,
			opts: RunOptions{Sampling: SamplingOptions{Policy: PolicyFixed, Workers: 2}}},
	} {
		resumeWithWarmBatcher(t, inst, tc)
	}
}

func resumeWithWarmBatcher(t *testing.T, inst *Instance, tc sessionCase) {
	t.Helper()
	ref := batchReference(t, inst, tc, 11)

	// Dirty the donated batcher with draws from an unrelated campaign.
	warm := ris.NewBatcher(inst.Model)
	res := graph.NewResidual(inst.G)
	if _, err := warm.GrowTo(res, rng.New(999), 500, 2); err != nil {
		t.Fatal(err)
	}

	root := rng.New(11)
	world := root.Split()
	algoRNG := root.Split()
	env := NewEnvironment(cascade.Sample(inst.G, inst.Model, world))
	sess, err := NewSession(inst, tc.algo, tc.opts, algoRNG)
	if err != nil {
		t.Fatal(err)
	}
	for {
		sess = roundTrip(t, inst, sess, ResumeOptions{Batcher: warm})
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
	compareRuns(t, tc.name+"/warm-resume", sess.Result(), ref)
}

// TestCheckpointRejectsWrongInstance: a checkpoint must refuse to restore
// onto an instance with a different fingerprint.
func TestCheckpointRejectsWrongInstance(t *testing.T) {
	inst := nethept005Instance(t, "")
	sess, err := NewSession(inst, AlgoADDATP, RunOptions{Sampling: SamplingOptions{Workers: 2}}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := sess.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeSession(fig1Instance(t), blob, ResumeOptions{}); err == nil {
		t.Fatal("resume on a different instance succeeded; fingerprint check is dead")
	}
	// Truncation at any point must error, never panic or misparse.
	for cut := 0; cut < len(blob); cut += 7 {
		if _, err := ResumeSession(inst, blob[:cut], ResumeOptions{}); err == nil {
			t.Fatalf("resume of %d/%d-byte prefix succeeded", cut, len(blob))
		}
	}
	// Unknown and superseded versions must be refused with the version
	// error (version 4 laid ADG's payload out differently; version 6
	// carried two sampling options that are now constants and the
	// collection's requested count; version 7 stored RR state instead of
	// the replay record).
	for _, v := range []uint32{4, 6, 7, 0xFF} {
		bad := append([]byte(nil), blob...)
		binary.LittleEndian.PutUint32(bad[8:], v)
		_, err := ResumeSession(inst, bad, ResumeOptions{})
		if want := fmt.Sprintf("version %d not supported", v); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("resume of a version-%d checkpoint: %v, want %q", v, err, want)
		}
	}
}

// TestSessionObserveContract pins the misuse errors: Observe without a
// pending seed, Observe after completion, NextSeed idempotence while a
// proposal is pending.
func TestSessionObserveContract(t *testing.T) {
	inst := fig1Instance(t)
	sess, err := NewSession(inst, AlgoAllTargets, RunOptions{}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Observe(nil); err == nil {
		t.Fatal("Observe before NextSeed succeeded")
	}
	u, stop, err := sess.NextSeed()
	if err != nil || stop {
		t.Fatalf("NextSeed: (%v, %v)", stop, err)
	}
	if u2, _, _ := sess.NextSeed(); u2 != u {
		t.Fatalf("pending NextSeed returned %d, want %d", u2, u)
	}
	if p, ok := sess.Pending(); !ok || p != u {
		t.Fatalf("Pending() = (%d, %v), want (%d, true)", p, ok, u)
	}
	if err := sess.Observe([]graph.NodeID{9999}); err == nil {
		t.Fatal("Observe of out-of-range node succeeded")
	}
	rz := fig1Realization(inst.G)
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
	if err := sess.Observe(nil); err == nil {
		t.Fatal("Observe after completion succeeded")
	}
	if _, err := sess.Checkpoint(); err != nil {
		t.Fatalf("checkpoint of a finished session: %v", err)
	}
	res := sess.Result()
	if res.Rounds != len(inst.Targets) || res.Spread != env.Activated() {
		t.Fatalf("result rounds=%d spread=%d, want %d/%d", res.Rounds, res.Spread, len(inst.Targets), env.Activated())
	}
}

// TestSessionObserveCountsOmittedSeed: an observation that omits the
// pending seed must count the seed as activated. Two sessions run in
// lockstep on one world; each round the first is told the realized
// activations with the seed listed last, the second the same list
// without it. Removing a still-alive seed after the listed nodes gives
// both the same residual, so every proposal and the final result must
// agree, and no seed is proposed twice. NSG dispenses seeds chosen up
// front, so the case also covers a seed that is already dead when
// dispensed: it must add nothing to the spread.
func TestSessionObserveCountsOmittedSeed(t *testing.T) {
	inst := nethept005Instance(t, "")
	byName := map[string]sessionCase{}
	for _, tc := range sessionCases() {
		byName[tc.name] = tc
	}
	for _, name := range []string{"addatp-seq", "adg", "nsg"} {
		t.Run(name, func(t *testing.T) { observeOmittingSeed(t, inst, byName[name]) })
	}
}

func observeOmittingSeed(t *testing.T, inst *Instance, tc sessionCase) {
	name := tc.name
	env := NewEnvironment(cascade.Sample(inst.G, inst.Model, rng.New(11).Split()))
	algoRNG := func() *rng.RNG {
		root := rng.New(11)
		root.Split() // the world's stream
		return root.Split()
	}
	listed, err := NewSession(inst, tc.algo, tc.opts, algoRNG())
	if err != nil {
		t.Fatal(err)
	}
	omitted, err := NewSession(inst, tc.algo, tc.opts, algoRNG())
	if err != nil {
		t.Fatal(err)
	}
	if name == "adg" && stepperType(omitted) != "*adaptive.adgStepper/*ris.Batcher" {
		t.Fatalf("adg runs %s, want the RR-sampling path", stepperType(omitted))
	}
	deadDispensed := 0
	for {
		u, stop, err := listed.NextSeed()
		u2, stop2, err2 := omitted.NextSeed()
		if err != nil || err2 != nil {
			t.Fatalf("%s: NextSeed: %v / %v", name, err, err2)
		}
		if u != u2 || stop != stop2 {
			t.Fatalf("%s round %d: listed proposes (%d, stop=%v), omitted (%d, stop=%v)",
				name, listed.Rounds()+1, u, stop, u2, stop2)
		}
		if stop {
			break
		}
		if !listed.res.Alive(u) {
			deadDispensed++
		}
		var rest []graph.NodeID
		for _, v := range env.Observe(u) {
			if v != u {
				rest = append(rest, v)
			}
		}
		if err := listed.Observe(append(rest, u)); err != nil {
			t.Fatal(err)
		}
		if err := omitted.Observe(rest); err != nil {
			t.Fatal(err)
		}
		if listed.Spread() != env.Activated() || omitted.Spread() != env.Activated() {
			t.Fatalf("%s: spread listed=%d omitted=%d, environment %d",
				name, listed.Spread(), omitted.Spread(), env.Activated())
		}
	}
	if name == "nsg" && deadDispensed == 0 {
		t.Fatal("nsg never dispensed an already-activated seed; the dead-seed case is untested")
	}
	got, want := omitted.Result(), listed.Result()
	compareRuns(t, name, got, want)
	if got.RRVisits != want.RRVisits || got.RREdgeTouches != want.RREdgeTouches {
		t.Errorf("%s: sampler work (visits=%d touches=%d), want (%d, %d)",
			name, got.RRVisits, got.RREdgeTouches, want.RRVisits, want.RREdgeTouches)
	}
	seen := map[graph.NodeID]bool{}
	for _, u := range got.Seeds {
		if seen[u] {
			t.Fatalf("%s: seed %d proposed twice: %v", name, u, got.Seeds)
		}
		seen[u] = true
	}
}
