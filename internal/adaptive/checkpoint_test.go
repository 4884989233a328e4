package adaptive

import (
	"bytes"
	"encoding/binary"
	"fmt"
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
// size, re-encodes byte-identically after a resume, and the resumed
// campaign finishes seed-identically to the uninterrupted one. The
// sampling steppers' collections still hold the sets the delta dropped
// when the blob is written and none after the resume, so the
// byte-identical re-encode checks that the writer leaves dropped sets out.
func TestCheckpointExactSize(t *testing.T) {
	sparse := 0
	for _, k := range checkpointKinds(t) {
		sess, env := midCampaign(t, k.inst, k.tc, 7)
		if got := stepperType(sess); got != k.stepType {
			t.Fatalf("%s: stepper %s, want %s", k.tc.name, got, k.stepType)
		}
		if st, ok := sess.step.(*samplingStepper); ok {
			cs := st.b.Collection().State()
			if sets, _ := cs.Len(); sets < len(cs.Roots) {
				sparse++
			}
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
	if sparse == 0 {
		t.Fatal("no sampling session held dropped sets at its checkpoint")
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

// TestResumeRejectsCorruptLogs hand-edits the removal-log and delta-log
// sections of a genuine checkpoint: a repeated or out-of-range removed
// node, a residual version that disagrees with the log length, and a
// delta count that disagrees with the log's bytes must each make
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

	// Locate the residual section: version, count, removals oldest first.
	removed := sess.res.Removed()
	if len(removed) < 2 || sess.Mutations() != 2 {
		t.Fatalf("fixture has %d removals and %d deltas; need 2+ and 2", len(removed), sess.Mutations())
	}
	section := binary.LittleEndian.AppendUint64(nil, uint64(sess.res.Version()))
	section = binary.LittleEndian.AppendUint64(section, uint64(len(removed)))
	for i := len(removed) - 1; i >= 0; i-- {
		section = binary.LittleEndian.AppendUint32(section, uint32(removed[i]))
	}
	if bytes.Count(blob, section) != 1 {
		t.Fatal("residual section not found exactly once in the blob")
	}
	verAt := bytes.Index(blob, section)
	logAt := verAt + 16
	const deltaCountAt = 8 + 4 + 8 // magic, version, fingerprint

	n := uint32(k.inst.G.N())
	edits := []struct {
		name string
		edit func(b []byte)
	}{
		{"repeated removed node", func(b []byte) { copy(b[logAt+4:logAt+8], b[logAt:logAt+4]) }},
		{"removed node = N", func(b []byte) { binary.LittleEndian.PutUint32(b[logAt:], n) }},
		{"negative removed node", func(b []byte) { binary.LittleEndian.PutUint32(b[logAt:], ^uint32(0)) }},
		{"version one above the log", func(b []byte) {
			binary.LittleEndian.PutUint64(b[verAt:], binary.LittleEndian.Uint64(b[verAt:])+1)
		}},
		{"version one below the log", func(b []byte) {
			binary.LittleEndian.PutUint64(b[verAt:], binary.LittleEndian.Uint64(b[verAt:])-1)
		}},
		{"delta count one above its bytes", func(b []byte) { binary.LittleEndian.PutUint64(b[deltaCountAt:], 3) }},
		{"delta count one below its bytes", func(b []byte) { binary.LittleEndian.PutUint64(b[deltaCountAt:], 1) }},
		{"delta count zero", func(b []byte) { binary.LittleEndian.PutUint64(b[deltaCountAt:], 0) }},
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
// increment, which no genuine checkpoint holds; a blob whose session or
// ADG stream carries one must be refused with an error instead.
func TestResumeRejectsEvenRNGIncrement(t *testing.T) {
	var k checkpointKind
	for _, k = range checkpointKinds(t) {
		if k.tc.name == "adg" {
			break
		}
	}
	sess, _ := midCampaign(t, k.inst, k.tc, 7)
	blob, err := sess.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*rng.RNG{"session": sess.r, "adg": sess.step.(*adgStepper).r} {
		state, inc := g.State()
		words := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, state), inc)
		if bytes.Count(blob, words) != 1 {
			t.Fatalf("%s stream not found exactly once in the blob", name)
		}
		bad := bytes.Clone(blob)
		binary.LittleEndian.PutUint64(bad[bytes.Index(bad, words)+8:], inc^1)
		if _, err := ResumeSession(k.inst, bad, ResumeOptions{}); err == nil || !strings.Contains(err.Error(), "even RNG increment") {
			t.Errorf("%s stream with an even increment: %v", name, err)
		}
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
