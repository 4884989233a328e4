package adaptive

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/cascade"
	"repro/internal/gen"
	"repro/internal/rng"
)

// checkpointKind is one stepper payload the codec encodes, with the
// stepper (and ADG estimator) type a session of that case must run.
type checkpointKind struct {
	tc       sessionCase
	inst     *Instance
	stepType string
}

// checkpointKinds covers every stepper payload: sequential and fixed
// sampling, ADG over RR sets and the exact oracle, NSG and all-targets.
func checkpointKinds(t *testing.T) []checkpointKind {
	inst := nethept005Instance(t, "")
	byName := map[string]sessionCase{}
	for _, tc := range sessionCases() {
		byName[tc.name] = tc
	}
	return []checkpointKind{
		{byName["addatp-seq"], inst, "*adaptive.samplingStepper"},
		{byName["hatp-fixed"], inst, "*adaptive.samplingStepper"},
		{byName["adg"], inst, "*adaptive.adgStepper/*ris.Batcher"},
		{sessionCase{"adg-exact", AlgoADG, RunOptions{}}, fig1Instance(t), "*adaptive.adgStepper/*oracle.Exact"},
		{byName["nsg"], inst, "*adaptive.nsgStepper"},
		{byName["all-targets"], inst, "*adaptive.allTargetsStepper"},
	}
}

func stepperType(s *Session) string {
	if st, ok := s.step.(*adgStepper); ok {
		if st.b != nil {
			return fmt.Sprintf("%T/%T", st, st.b)
		}
		return fmt.Sprintf("%T/%T", st, st.orc)
	}
	return fmt.Sprintf("%T", s.step)
}

// midCampaign drives a session through one observed round and one
// topology delta, re-homes env onto the mutated graph, and leaves the
// next proposal pending (when the campaign has one), so a checkpoint
// taken there carries every section: delta log, removal log, pending
// seed and stepper payload.
func midCampaign(t *testing.T, inst *Instance, tc sessionCase, seed uint64) (*Session, *Environment) {
	t.Helper()
	root := rng.New(seed)
	world := root.Split()
	sess, err := NewSession(inst, tc.algo, tc.opts, root.Split())
	if err != nil {
		t.Fatalf("%s: NewSession: %v", tc.name, err)
	}
	env := NewEnvironment(cascade.Sample(inst.G, inst.Model, world))
	u, stop, err := sess.NextSeed()
	if err != nil || stop {
		t.Fatalf("%s: first NextSeed: stop=%v err=%v", tc.name, stop, err)
	}
	if err := sess.Observe(env.Observe(u)); err != nil {
		t.Fatal(err)
	}
	ins, dels := gen.ChurnDeltas(sess.Instance().G, 0.01, rng.New(seed+1))
	if len(ins)+len(dels) == 0 {
		t.Fatalf("%s: empty churn delta", tc.name)
	}
	if _, err := sess.Mutate(ins, dels); err != nil {
		t.Fatalf("%s: Mutate: %v", tc.name, err)
	}
	env = resampledEnv(sess, seed)
	if _, _, err := sess.NextSeed(); err != nil {
		t.Fatalf("%s: NextSeed after delta: %v", tc.name, err)
	}
	return sess, env
}

// resampledEnv samples the realized world on the session's current graph,
// its residual in lockstep with the session's.
func resampledEnv(s *Session, seed uint64) *Environment {
	rz := cascade.Sample(s.Instance().G, s.Instance().Model, rng.New(seed*2003))
	return NewEnvironmentAt(rz, s.CloneResidual(), s.Spread())
}

// TestCheckpointExactSize: for every stepper kind, a checkpoint taken
// mid-campaign after a topology delta is one buffer of exactly its final
// size, re-encodes byte-identically after a resume (the replay records
// the same history the original did), and the resumed campaign finishes
// seed-identically to the uninterrupted one.
func TestCheckpointExactSize(t *testing.T) {
	for _, k := range checkpointKinds(t) {
		sess, env := midCampaign(t, k.inst, k.tc, 7)
		if got := stepperType(sess); got != k.stepType {
			t.Fatalf("%s: stepper %s, want %s", k.tc.name, got, k.stepType)
		}
		blob, err := sess.Checkpoint()
		if err != nil {
			t.Fatalf("%s: checkpoint: %v", k.tc.name, err)
		}
		if len(blob) != cap(blob) {
			t.Fatalf("%s: checkpoint len %d, cap %d", k.tc.name, len(blob), cap(blob))
		}
		resumed, err := ResumeSession(k.inst, blob, ResumeOptions{})
		if err != nil {
			t.Fatalf("%s: resume: %v", k.tc.name, err)
		}
		if got := stepperType(resumed); got != k.stepType {
			t.Fatalf("%s: resumed stepper %s, want %s", k.tc.name, got, k.stepType)
		}
		again, err := resumed.Checkpoint()
		if err != nil {
			t.Fatalf("%s: checkpoint of the resumed session: %v", k.tc.name, err)
		}
		if !bytes.Equal(again, blob) {
			t.Fatalf("%s: resumed session re-encodes to %d bytes that differ from the %d-byte original", k.tc.name, len(again), len(blob))
		}
		want, err := sess.Drive(env)
		if err != nil {
			t.Fatalf("%s: finishing the original: %v", k.tc.name, err)
		}
		got, err := resumed.Drive(resampledEnv(resumed, 7))
		if err != nil {
			t.Fatalf("%s: finishing the resumed session: %v", k.tc.name, err)
		}
		compareRuns(t, k.tc.name+"/exact-size", got, want)
	}
}

// TestCheckpointAllocs: a warm sequential session that has taken a
// topology delta checkpoints with exactly one allocation, the blob.
func TestCheckpointAllocs(t *testing.T) {
	k := checkpointKinds(t)[0]
	sess, _ := midCampaign(t, k.inst, k.tc, 7)
	if _, err := sess.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := sess.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("Checkpoint made %v allocations per call, want 1", allocs)
	}
}

// TestResumeRejectsCorruptLogs hand-edits the removal-log, rounds and
// delta-log sections of a genuine checkpoint: a repeated or out-of-range
// removed node, a round whose removal count disagrees with what its
// replay removes, a delta count that disagrees with the log's bytes and a
// delta recorded after more rounds than the blob holds must each make
// ResumeSession return an error, never panic or resume.
func TestResumeRejectsCorruptLogs(t *testing.T) {
	k := checkpointKinds(t)[0]
	sess, env := midCampaign(t, k.inst, k.tc, 7)
	// A second delta, so the count can be lowered without emptying the log.
	u, _ := sess.Pending()
	if err := sess.Observe(env.Observe(u)); err != nil {
		t.Fatal(err)
	}
	ins, dels := gen.ChurnDeltas(sess.Instance().G, 0.01, rng.New(99))
	if _, err := sess.Mutate(ins, dels); err != nil {
		t.Fatal(err)
	}
	blob, err := sess.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeSession(k.inst, blob, ResumeOptions{}); err != nil {
		t.Fatalf("unedited blob: %v", err)
	}

	// Locate the rounds section (count, then seed and removal count per
	// round) and the removal log after it (count, removals oldest first).
	removed := sess.res.Removed()
	if len(removed) < 2 || sess.Mutations() != 2 || sess.Rounds() != 2 {
		t.Fatalf("fixture has %d removals, %d deltas and %d rounds; need 2+, 2 and 2", len(removed), sess.Mutations(), sess.Rounds())
	}
	section := binary.LittleEndian.AppendUint64(nil, uint64(sess.Rounds()))
	for i, u := range sess.Seeds() {
		section = binary.LittleEndian.AppendUint32(section, uint32(u))
		section = binary.LittleEndian.AppendUint32(section, binary.LittleEndian.Uint32(sess.rounds[8*i+4:]))
	}
	section = binary.LittleEndian.AppendUint64(section, uint64(len(removed)))
	for i := len(removed) - 1; i >= 0; i-- {
		section = binary.LittleEndian.AppendUint32(section, uint32(removed[i]))
	}
	if bytes.Count(blob, section) != 1 {
		t.Fatal("rounds and removal log not found exactly once in the blob")
	}
	at := bytes.Index(blob, section)
	countAt := at + 8 + 4                 // round 1's removal count
	logAt := at + 8 + 8*sess.Rounds() + 8 // the oldest removal
	const deltaCountAt = 8 + 4 + 8        // magic, version, fingerprint

	n := uint32(k.inst.G.N())
	edits := []struct {
		name string
		edit func(b []byte)
	}{
		{"repeated removed node", func(b []byte) { copy(b[logAt+4:logAt+8], b[logAt:logAt+4]) }},
		{"removed node = N", func(b []byte) { binary.LittleEndian.PutUint32(b[logAt:], n) }},
		{"negative removed node", func(b []byte) { binary.LittleEndian.PutUint32(b[logAt:], ^uint32(0)) }},
		{"removal count one above the round's", func(b []byte) {
			binary.LittleEndian.PutUint32(b[countAt:], binary.LittleEndian.Uint32(b[countAt:])+1)
		}},
		{"removal count one below the round's", func(b []byte) {
			binary.LittleEndian.PutUint32(b[countAt:], binary.LittleEndian.Uint32(b[countAt:])-1)
		}},
		{"removal count past the log", func(b []byte) { binary.LittleEndian.PutUint32(b[countAt:], ^uint32(0)) }},
		{"delta count one above its bytes", func(b []byte) { binary.LittleEndian.PutUint64(b[deltaCountAt:], 3) }},
		{"delta count one below its bytes", func(b []byte) { binary.LittleEndian.PutUint64(b[deltaCountAt:], 1) }},
		{"delta count zero", func(b []byte) { binary.LittleEndian.PutUint64(b[deltaCountAt:], 0) }},
		{"first delta after more rounds than recorded", func(b []byte) { binary.LittleEndian.PutUint64(b[deltaCountAt+8:], 3) }},
	}
	for _, e := range edits {
		bad := bytes.Clone(blob)
		e.edit(bad)
		if _, err := ResumeSession(k.inst, bad, ResumeOptions{}); err == nil {
			t.Errorf("%s: resume succeeded", e.name)
		} else {
			t.Logf("%s: %v", e.name, err)
		}
	}
}

// TestResumeRejectsEvenRNGIncrement: rng.SetState panics on an even
// increment, which no genuine checkpoint holds; a blob whose session RNG
// carries one must be refused with an error instead.
func TestResumeRejectsEvenRNGIncrement(t *testing.T) {
	for _, k := range checkpointKinds(t) {
		sess, _ := midCampaign(t, k.inst, k.tc, 7)
		blob, err := sess.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		words := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, sess.rng0[0]), sess.rng0[1])
		if bytes.Count(blob, words) != 1 {
			t.Fatalf("%s: session RNG not found exactly once in the blob", k.tc.name)
		}
		bad := bytes.Clone(blob)
		binary.LittleEndian.PutUint64(bad[bytes.Index(bad, words)+8:], sess.rng0[1]^1)
		if _, err := ResumeSession(k.inst, bad, ResumeOptions{}); err == nil || !strings.Contains(err.Error(), "even RNG increment") {
			t.Errorf("%s: session RNG with an even increment: %v", k.tc.name, err)
		}
	}
}

// TestResumeRejectsDivergentReplay: a recorded seed the replayed policy
// does not propose fails the resume with an error naming the round, for
// every stepper kind.
func TestResumeRejectsDivergentReplay(t *testing.T) {
	for _, k := range checkpointKinds(t) {
		sess, _ := midCampaign(t, k.inst, k.tc, 7)
		blob, err := sess.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		first := sess.Seeds()[0]
		other := k.inst.Targets[0]
		if other == first {
			other = k.inst.Targets[1]
		}
		round := binary.LittleEndian.AppendUint64(nil, 1)
		round = append(round, sess.rounds[:8]...)
		if bytes.Count(blob, round) != 1 {
			t.Fatalf("%s: round 1 not found exactly once in the blob", k.tc.name)
		}
		bad := bytes.Clone(blob)
		binary.LittleEndian.PutUint32(bad[bytes.Index(bad, round)+8:], uint32(other))
		_, err = ResumeSession(k.inst, bad, ResumeOptions{})
		if want := fmt.Sprintf("replay diverges at round 1: the policy proposes %d where the record seeds %d", first, other); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: tampered seed: %v, want %q", k.tc.name, err, want)
		}
	}
}

// TestResumeQuiescentCanMutate: a checkpoint taken between an Observe and
// the next NextSeed restores with no pending seed, accepts a topology
// delta, and finishes as the original does after the same delta.
func TestResumeQuiescentCanMutate(t *testing.T) {
	k := checkpointKinds(t)[0]
	sess, env := midCampaign(t, k.inst, k.tc, 7)
	u, _ := sess.Pending()
	if err := sess.Observe(env.Observe(u)); err != nil {
		t.Fatal(err)
	}
	blob, err := sess.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := ResumeSession(k.inst, blob, ResumeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, pending := resumed.Pending(); pending || resumed.Done() {
		t.Fatalf("quiescent checkpoint restored pending=%v done=%v", pending, resumed.Done())
	}
	ins, dels := gen.ChurnDeltas(sess.Instance().G, 0.01, rng.New(41))
	var finished [2]*RunResult
	for i, s := range []*Session{sess, resumed} {
		if _, err := s.Mutate(ins, dels); err != nil {
			t.Fatalf("session %d: Mutate: %v", i, err)
		}
		if finished[i], err = s.Drive(resampledEnv(s, 43)); err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	if resumed.Mutations() != 2 {
		t.Fatalf("resumed session counts %d deltas, want 2", resumed.Mutations())
	}
	compareRuns(t, "quiescent resume + mutate", finished[1], finished[0])
}

// TestResumeRestoresPendingAndDone: a checkpoint with a seed pending, and
// one of a finished campaign, restore the same Pending() and Done() as
// the session they were taken from.
func TestResumeRestoresPendingAndDone(t *testing.T) {
	for _, k := range checkpointKinds(t) {
		sess, env := midCampaign(t, k.inst, k.tc, 7)
		check := func(stage string) {
			t.Helper()
			resumed := roundTrip(t, k.inst, sess, ResumeOptions{})
			gotU, gotP := resumed.Pending()
			wantU, wantP := sess.Pending()
			if gotP != wantP || (wantP && gotU != wantU) || resumed.Done() != sess.Done() {
				t.Fatalf("%s %s: restored pending (%d, %v) done %v, want (%d, %v) done %v",
					k.tc.name, stage, gotU, gotP, resumed.Done(), wantU, wantP, sess.Done())
			}
		}
		if _, pending := sess.Pending(); !pending {
			t.Fatalf("%s: midCampaign left no seed pending", k.tc.name)
		}
		check("pending")
		if _, err := sess.Drive(env); err != nil {
			t.Fatal(err)
		}
		check("done")
	}
}

// TestResumeRejectsBadOptions: the options a blob carries decide how much
// work its replay does, so RunOptions.Validate refuses a bad one before
// anything runs: an unknown policy, a non-finite or non-positive ζ, ε or
// δ, a negative or absurd worker count, an ADG or NSG θ outside
// [1, maxTheta].
func TestResumeRejectsBadOptions(t *testing.T) {
	inst := nethept005Instance(t, "")
	sess, err := NewSession(inst, AlgoHATP, RunOptions{}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := sess.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	// magic, version, fingerprint, delta count, algo, policy
	policyAt := 8 + 4 + 8 + 8 + 8 + len(AlgoHATP) + 8
	zetaAt := policyAt + len(PolicySequential)
	workersAt := zetaAt + 3*8
	adgAt := workersAt + 8 + 1
	f64 := func(at int, v float64) func([]byte) {
		return func(b []byte) { binary.LittleEndian.PutUint64(b[at:], math.Float64bits(v)) }
	}
	i64 := func(at int, v int64) func([]byte) {
		return func(b []byte) { binary.LittleEndian.PutUint64(b[at:], uint64(v)) }
	}
	for _, e := range []struct {
		name, want string
		edit       func([]byte)
	}{
		{"unknown policy", "unknown sampling policy", func(b []byte) { b[policyAt] = 'x' }},
		{"NaN zeta", "zeta", f64(zetaAt, math.NaN())},
		{"negative eps", "eps", f64(zetaAt+8, -0.2)},
		{"infinite delta", "delta", f64(zetaAt+16, math.Inf(1))},
		{"negative workers", "workers", i64(workersAt, -1)},
		{"2^20 workers", "workers", i64(workersAt, 1<<20)},
		{"zero ADG theta", "theta", i64(adgAt, 0)},
		{"negative NSG theta", "theta", i64(adgAt+8, -5)},
		{"2^40 ADG theta", "theta", i64(adgAt, 1<<40)},
		{"NSG theta past the cap", "theta", i64(adgAt+8, maxTheta+1)},
	} {
		bad := bytes.Clone(blob)
		e.edit(bad)
		if _, err := ResumeSession(inst, bad, ResumeOptions{}); err == nil || !strings.Contains(err.Error(), e.want) {
			t.Errorf("%s: %v, want an error naming %q", e.name, err, e.want)
		}
	}
	if _, err := ResumeSession(inst, blob, ResumeOptions{}); err != nil {
		t.Fatalf("unedited blob: %v", err)
	}
}

// TestResumeDoesNotAliasBlob: the resumed session owns its delta log, so
// a caller reusing the blob's buffer cannot change what the session
// checkpoints next.
func TestResumeDoesNotAliasBlob(t *testing.T) {
	k := checkpointKinds(t)[0]
	sess, _ := midCampaign(t, k.inst, k.tc, 7)
	blob, err := sess.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	scribbled := bytes.Clone(blob)
	resumed, err := ResumeSession(k.inst, scribbled, ResumeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range scribbled {
		scribbled[i] = 0xEE
	}
	again, err := resumed.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, blob) {
		t.Fatal("a resumed session's checkpoint changed when the caller overwrote the blob it was resumed from")
	}
}
