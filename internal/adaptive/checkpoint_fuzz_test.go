package adaptive

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/cascade"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/rng"
)

// fuzzInstance is fig1Instance without the *testing.T plumbing, so the
// fuzz target can build it once.
func fuzzInstance(f *testing.F) *Instance {
	f.Helper()
	g := fig1Graph()
	targets := []graph.NodeID{0, 1, 5}
	costs, err := cost.Assign(g, targets, 4.5, cost.Uniform, nil)
	if err != nil {
		f.Fatal(err)
	}
	return &Instance{G: g, Model: cascade.IC, Targets: targets, Costs: costs}
}

// fuzzRingInstance is a 12-node ring with chords: 24 edges, beyond the
// exact oracle, so ADG on it samples RR sets and its checkpoints carry
// the RR stream and batcher.
func fuzzRingInstance(f *testing.F) *Instance {
	f.Helper()
	var edges []graph.Edge
	for u := 0; u < 12; u++ {
		edges = append(edges,
			graph.Edge{From: graph.NodeID(u), To: graph.NodeID((u + 1) % 12), P: 0.4},
			graph.Edge{From: graph.NodeID(u), To: graph.NodeID((u + 5) % 12), P: 0.2})
	}
	g := graph.MustFromEdges(12, true, edges)
	targets := []graph.NodeID{0, 4, 8}
	costs, err := cost.Assign(g, targets, 3, cost.Uniform, nil)
	if err != nil {
		f.Fatal(err)
	}
	return &Instance{G: g, Model: cascade.IC, Targets: targets, Costs: costs}
}

// midCheckpoint checkpoints sess after one observed round.
func midCheckpoint(f *testing.F, sess *Session, env *Environment) []byte {
	f.Helper()
	if u, stop, err := sess.NextSeed(); err != nil || stop {
		f.Fatalf("next: stop=%v err=%v", stop, err)
	} else if err := sess.Observe(env.Observe(u)); err != nil {
		f.Fatal(err)
	}
	blob, err := sess.Checkpoint()
	if err != nil {
		f.Fatal(err)
	}
	return blob
}

// fuzzPolls is the interrupt budget a fuzzed resume runs under: a
// corrupt θ or ζ can ask the replay for any number of RR draws, and the
// budget stops it within a few thousand sets on these graphs.
const fuzzPolls = 256

// FuzzResumeSession feeds arbitrary bytes — and mutations of a genuine
// checkpoint — to the session decoder and its replay. The service
// layer's CRC64 envelope catches accidental damage before the blob gets
// here, but the decoder is the last line of defense against a hostile or
// buggy writer: it must return an error for anything it cannot replay,
// never panic. The seed corpus flips the low bit, the high bit and a
// mixed pattern of every byte of each genuine blob, and cuts it at every
// length.
func FuzzResumeSession(f *testing.F) {
	inst, ring := fuzzInstance(f), fuzzRingInstance(f)
	sess, err := NewSession(inst, AlgoADDATP, RunOptions{}, rng.New(5))
	if err != nil {
		f.Fatal(err)
	}
	blob := midCheckpoint(f, sess, NewEnvironment(fig1Realization(inst.G)))
	adg, err := NewSession(ring, AlgoADG, RunOptions{ADGTheta: 500}, rng.New(5))
	if err != nil {
		f.Fatal(err)
	}
	if st, ok := adg.step.(*adgStepper); !ok || st.b == nil {
		f.Fatal("ADG on the ring does not sample RR sets")
	}
	adgBlob := midCheckpoint(f, adg, NewEnvironment(cascade.Sample(ring.G, ring.Model, rng.New(6))))
	if _, err := ResumeSession(ring, adgBlob, fuzzResume()); err != nil {
		f.Fatalf("genuine ADG checkpoint: %v", err)
	}
	// A checkpoint after a topology delta, so the delta-log and
	// removal-log sections both hold entries to corrupt.
	if _, err := sess.Mutate([]graph.Edge{{From: 0, To: 6, P: 0.5}}, []graph.Edge{{From: 0, To: 1}}); err != nil {
		f.Fatal(err)
	}
	mutated, err := sess.Checkpoint()
	if err != nil {
		f.Fatal(err)
	}
	if _, err := ResumeSession(inst, mutated, fuzzResume()); err != nil {
		f.Fatalf("genuine mutated checkpoint: %v", err)
	}

	f.Add([]byte{})
	f.Add([]byte("not a checkpoint"))
	for _, b := range [][]byte{blob, mutated, adgBlob} {
		f.Add(b)
		for i := range b {
			for _, mask := range []byte{0x01, 0x80, 0xA5} {
				mut := bytes.Clone(b)
				mut[i] ^= mask
				f.Add(mut)
			}
			f.Add(b[:i])
		}
		// The same bytes under the superseded format version.
		old := bytes.Clone(b)
		binary.LittleEndian.PutUint32(old[8:], ckptVersion-1)
		f.Add(old)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range []*Instance{inst, ring} {
			s, err := ResumeSession(in, data, fuzzResume())
			if err != nil {
				continue
			}
			// Accepted blobs must yield a session that can at least report
			// its state and checkpoint again.
			_ = s.Rounds()
			_ = s.Seeds()
			_ = s.Spread()
			if _, err := s.Checkpoint(); err != nil {
				t.Fatalf("resumed session cannot checkpoint: %v", err)
			}
		}
	})
}

// fuzzResume returns resume options whose interrupt fails the resume
// after fuzzPolls polls.
func fuzzResume() ResumeOptions {
	var polls atomic.Int32
	return ResumeOptions{Interrupt: func() error {
		if polls.Add(1) > fuzzPolls {
			return errFuzzBudget
		}
		return nil
	}}
}

var errFuzzBudget = errors.New("fuzz: replay poll budget spent")
