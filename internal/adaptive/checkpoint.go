package adaptive

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/ris"
	"repro/internal/rng"
)

// Checkpoint format: a versioned little-endian binary blob holding a
// session's inputs, from which ResumeSession rebuilds it in another
// process by replay. A session's decisions depend only on its partial
// realization: the RNG it was created with, the seeds it committed, the
// cascades it observed and the topology deltas it took. Every RR set,
// coverage count and stepper counter is a deterministic function of that
// history, so none of them is stored.
//
// The sampling options ride in the blob and are authoritative on resume
// (RunOptions.Validate checks them before anything runs). Workers among
// them is the campaign's configured parallelism, not a determinism input:
// RR sets depend on the seed and the count only, so a blob written on one
// core count resumes identically on another. An instance fingerprint
// (graph shape, model, targets, costs) guards against restoring onto the
// wrong instance. Unknown versions and torn payloads fail loudly.
//
// Layout of version 8, in order (u64 counts precede every list; nodes
// and u32s are 4 bytes each, edges 16: from u32, to u32, p f64):
//
//	magic u64, version u32, base fingerprint u64
//	delta log: count u64, then per delta: round u64 (the number of
//	rounds observed before it), inserts []edge, deletes []edge
//	algo string, sampling options (policy string, ζ, ε, δ f64, workers,
//	no-reuse bool), ADG/NSG theta
//	session RNG at NewSession: state u64, inc u64
//	rounds: count u64, then per round: seed u32, removals u32 (the
//	nodes its observation removed)
//	removal log []node (oldest first; the rounds' removals in order)
//	done, havePending bool, pending u32
//
// The fingerprint names the *base* instance (the one the session was
// created on). ResumeSession builds a NewSession on it from the stored
// RNG state, then replays: before each round it applies the deltas
// tagged with the rounds observed so far (Mutate), asks NextSeed, checks
// the proposal against the recorded seed, and Observes that round's
// removals; a final NextSeed restores a pending proposal or the stop.
// The replayed graph is per-node structurally identical to the original
// mutated one, so sampling stays bit-identical. A proposal that differs
// from the record, a removal count the replayed residual disagrees with,
// and a done/pending flag the replay does not reach fail the resume.
//
// A blob is O(seeds + activations + deltas): no RR set, coverage count
// or sampling counter. The price is paid on restore, which redoes the
// campaign's work so far (its RR draws included; RunResult.SamplingNS
// counts them). The session keeps the delta log and the rounds section
// in this encoding as Mutate and Observe append to them, so a checkpoint
// copies both in one piece. Checkpoint sizes the blob with a counting
// pass over the same encoder and writes it into one exactly sized
// buffer.
//
// Version 8 replaced version 7's snapshot of derived state (spread,
// residual version, RR collections, ris.Stats and per-algorithm stepper
// payloads) with the RNG's initial state, the per-round record and the
// delta rounds. Older versions are rejected: no committed artifacts
// exist in those formats.
const (
	ckptMagic   = uint64(0x4154505345535331) // "ATPSESS1"
	ckptVersion = uint32(8)
)

// instFingerprint hashes the parts of the instance a checkpoint depends
// on. Two instances with equal fingerprints sample identically, so a
// restored session behaves as if it had never stopped.
func instFingerprint(inst *Instance) uint64 {
	h := fnv.New64a()
	var b [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	w(uint64(inst.G.N()))
	w(uint64(inst.G.M()))
	w(uint64(inst.Model))
	w(uint64(len(inst.Targets)))
	for _, u := range inst.Targets {
		w(uint64(uint32(u)))
		w(math.Float64bits(inst.Costs.Cost(u)))
	}
	return h.Sum64()
}

// ---------------------------------------------------------------------------
// Little-endian writer/reader with a sticky error (reader side) so the
// codec reads as straight-line field lists.

// ckptWriter runs in two modes over the same encoder: with a nil buf it
// only counts bytes (the sizing pass); with buf allocated at the counted
// size it writes them. Lists are written with bulk PutUint32 loops into
// a reserved span, never element-wise appends.
type ckptWriter struct {
	buf []byte
	n   int // bytes counted or written so far
}

// reserve claims the next k bytes: nil while sizing, the span to fill
// while writing.
func (w *ckptWriter) reserve(k int) []byte {
	off := w.n
	w.n += k
	if w.buf == nil {
		return nil
	}
	return w.buf[off:w.n]
}

func (w *ckptWriter) u8(v uint8) {
	if b := w.reserve(1); b != nil {
		b[0] = v
	}
}
func (w *ckptWriter) u32(v uint32) {
	if b := w.reserve(4); b != nil {
		binary.LittleEndian.PutUint32(b, v)
	}
}
func (w *ckptWriter) u64(v uint64) {
	if b := w.reserve(8); b != nil {
		binary.LittleEndian.PutUint64(b, v)
	}
}
func (w *ckptWriter) i(v int)       { w.u64(uint64(int64(v))) }
func (w *ckptWriter) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *ckptWriter) boolean(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *ckptWriter) raw(p []byte) {
	if b := w.reserve(len(p)); b != nil {
		copy(b, p)
	}
}
func (w *ckptWriter) str(s string) {
	w.u64(uint64(len(s)))
	if b := w.reserve(len(s)); b != nil {
		copy(b, s)
	}
}

// removals writes a residual's removal log oldest first; Removed lists it
// most recent first.
func (w *ckptWriter) removals(res *graph.Residual) {
	log := res.Removed()
	w.u64(uint64(len(log)))
	if b := w.reserve(4 * len(log)); b != nil {
		last := len(log) - 1
		for i, u := range log {
			binary.LittleEndian.PutUint32(b[4*(last-i):], uint32(u))
		}
	}
}

// appendDelta appends one topology delta to an encoded delta log, in the
// checkpoint's byte layout (the number of rounds observed before it, then
// inserts and deletes, each a counted edge list). Session.Mutate calls it
// once per delta, so checkpoints copy the log instead of re-encoding it.
func appendDelta(log []byte, round int, inserts, deletes []graph.Edge) []byte {
	log = slices.Grow(log, 24+16*(len(inserts)+len(deletes)))
	log = binary.LittleEndian.AppendUint64(log, uint64(round))
	for _, es := range [2][]graph.Edge{inserts, deletes} {
		log = binary.LittleEndian.AppendUint64(log, uint64(len(es)))
		for _, e := range es {
			log = binary.LittleEndian.AppendUint32(log, uint32(e.From))
			log = binary.LittleEndian.AppendUint32(log, uint32(e.To))
			log = binary.LittleEndian.AppendUint64(log, math.Float64bits(e.P))
		}
	}
	return log
}

// appendRound appends one observed round to an encoded rounds section:
// its seed and the number of nodes its observation removed.
// Session.Observe calls it once per round.
func appendRound(log []byte, seed graph.NodeID, removed int) []byte {
	log = binary.LittleEndian.AppendUint32(log, uint32(seed))
	return binary.LittleEndian.AppendUint32(log, uint32(removed))
}

type ckptReader struct {
	buf []byte
	off int
	err error
}

func (r *ckptReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("adaptive: checkpoint: "+format, args...)
	}
}

func (r *ckptReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.buf) {
		r.fail("truncated at offset %d (need %d of %d bytes)", r.off, n, len(r.buf))
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *ckptReader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *ckptReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *ckptReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *ckptReader) f64() float64 { return math.Float64frombits(r.u64()) }

// i reads a signed integer, refusing one this platform's int cannot hold.
func (r *ckptReader) i() int {
	v := int64(r.u64())
	if int64(int(v)) != v {
		r.fail("integer %d at offset %d overflows int", v, r.off-8)
		return 0
	}
	return int(v)
}

func (r *ckptReader) boolean() bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("corrupt bool at offset %d", r.off-1)
		return false
	}
}

func (r *ckptReader) str() string {
	n := r.u64()
	if n > uint64(len(r.buf)) {
		r.fail("string length %d exceeds payload", n)
		return ""
	}
	return string(r.take(int(n)))
}

func (r *ckptReader) length() int {
	n := r.u64()
	if n > uint64(len(r.buf)) { // cheap sanity cap: counts can't exceed bytes
		r.fail("slice length %d exceeds payload", n)
		return 0
	}
	return int(n)
}

func (r *ckptReader) nodes() []graph.NodeID {
	b := r.take(4 * r.length())
	if b == nil {
		return nil
	}
	out := make([]graph.NodeID, len(b)/4)
	for i := range out {
		out[i] = graph.NodeID(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

func (r *ckptReader) edges() []graph.Edge {
	n := r.length()
	b := r.take(16 * n)
	if b == nil {
		return nil
	}
	out := make([]graph.Edge, n)
	for i := range out {
		out[i] = graph.Edge{
			From: graph.NodeID(binary.LittleEndian.Uint32(b[16*i:])),
			To:   graph.NodeID(binary.LittleEndian.Uint32(b[16*i+4:])),
			P:    math.Float64frombits(binary.LittleEndian.Uint64(b[16*i+8:])),
		}
	}
	return out
}

// rng reads a generator's two state words. rng.SetState panics on an even
// increment, which no genuine checkpoint holds, so it is refused here.
func (r *ckptReader) rng() *rng.RNG {
	state, inc := r.u64(), r.u64()
	if r.err != nil {
		return nil
	}
	if inc&1 == 0 {
		r.fail("even RNG increment at offset %d", r.off-8)
		return nil
	}
	g := rng.New(0)
	g.SetState(state, inc)
	return g
}

// ---------------------------------------------------------------------------
// Encode.

// Checkpoint serializes the session between API calls (never during one —
// sessions are quiescent between calls by construction). A voided session
// (Err != nil) cannot be checkpointed: its in-flight batch state is
// undefined; nor can one created without an RNG, which a replay could not
// restart. The blob is one allocation of exactly its final size.
func (s *Session) Checkpoint() ([]byte, error) {
	if s.err != nil {
		return nil, fmt.Errorf("adaptive: checkpoint of a voided session: %w", s.err)
	}
	if s.r == nil {
		return nil, fmt.Errorf("adaptive: checkpoint of a session without an RNG")
	}
	var w ckptWriter
	s.encode(&w)
	w.buf, w.n = make([]byte, w.n), 0
	s.encode(&w)
	if w.n != len(w.buf) {
		panic(fmt.Sprintf("adaptive: checkpoint wrote %d bytes, sized %d", w.n, len(w.buf)))
	}
	return w.buf, nil
}

// encode runs the checkpoint encoder once over w (sizing or writing).
func (s *Session) encode(w *ckptWriter) {
	w.u64(ckptMagic)
	w.u32(ckptVersion)
	// The fingerprint names the base instance; the delta log carries the
	// session to its current topology on resume.
	w.u64(s.baseFP)
	w.u64(uint64(s.nDeltas))
	w.raw(s.deltaLog)
	w.str(s.algo)

	// Options (authoritative on resume; see the format comment above).
	w.str(s.opts.Sampling.Policy)
	w.f64(s.opts.Sampling.Zeta)
	w.f64(s.opts.Sampling.Eps)
	w.f64(s.opts.Sampling.Delta)
	w.i(s.opts.Sampling.Workers)
	w.boolean(s.opts.Sampling.NoReuse)
	w.i(s.opts.ADGTheta)
	w.i(s.opts.NSGTheta)

	// The replay's inputs: the RNG as NewSession got it, the rounds and
	// the residual's removal log they index into.
	w.u64(s.rng0[0])
	w.u64(s.rng0[1])
	w.u64(uint64(len(s.seeds)))
	w.raw(s.rounds)
	w.removals(s.res)

	// Cross-checks for the replay's last step.
	w.boolean(s.done)
	w.boolean(s.havePending)
	w.u32(uint32(s.pending))
}

// ---------------------------------------------------------------------------
// Decode.

// ResumeOptions configures a session restore.
type ResumeOptions struct {
	// Batcher, when non-nil, donates warm storage to the restored session
	// exactly as RunOptions.Batcher does for a fresh one (ADDATP and HATP
	// under either sampling policy; ignored otherwise).
	Batcher *ris.Batcher
	// Interrupt is installed before the replay starts, as
	// RunOptions.Interrupt is for a fresh session, so it also bounds the
	// replay's work.
	Interrupt func() error
}

// replayDelta is one decoded topology delta and the number of rounds
// observed before it.
type replayDelta struct {
	round            uint64
	inserts, deletes []graph.Edge
}

// ResumeSession rebuilds a session from a Checkpoint blob on the same
// instance (same graph, model, targets, costs — enforced by fingerprint)
// by replaying its recorded history through NewSession, Mutate, NextSeed
// and Observe (see the format comment). The restored session's subsequent
// NextSeed/Observe sequence, and its final Result, are bit-identical to
// the uninterrupted original's, except SamplingNS, which counts the
// replay's draws.
func ResumeSession(inst *Instance, data []byte, ropts ResumeOptions) (*Session, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	r := &ckptReader{buf: data}
	if m := r.u64(); r.err == nil && m != ckptMagic {
		return nil, fmt.Errorf("adaptive: checkpoint: bad magic %#x (not a session checkpoint)", m)
	}
	if v := r.u32(); r.err == nil && v != ckptVersion {
		return nil, fmt.Errorf("adaptive: checkpoint: version %d not supported (this build reads %d)", v, ckptVersion)
	}
	if fp := r.u64(); r.err == nil && fp != instFingerprint(inst) {
		return nil, fmt.Errorf("adaptive: checkpoint: instance fingerprint mismatch (checkpoint %#x, instance %#x) — wrong dataset, model, scale, or cost setting", fp, instFingerprint(inst))
	}
	var deltas []replayDelta
	for i, n := 0, r.length(); i < n && r.err == nil; i++ {
		deltas = append(deltas, replayDelta{round: r.u64(), inserts: r.edges(), deletes: r.edges()})
	}
	algo := r.str()

	var opts RunOptions
	opts.Sampling.Policy = r.str()
	opts.Sampling.Zeta = r.f64()
	opts.Sampling.Eps = r.f64()
	opts.Sampling.Delta = r.f64()
	opts.Sampling.Workers = r.i()
	opts.Sampling.NoReuse = r.boolean()
	opts.ADGTheta = r.i()
	opts.NSGTheta = r.i()

	algoRNG := r.rng()
	rounds := r.take(8 * r.length())
	removed := r.nodes()
	done, havePending := r.boolean(), r.boolean()
	pending := graph.NodeID(r.u32())
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(r.buf) {
		return nil, fmt.Errorf("adaptive: checkpoint: %d trailing bytes", len(r.buf)-r.off)
	}
	// The options decide how much work the replay does, so they are
	// checked before anything runs on them.
	if err := opts.Validate(); err != nil {
		return nil, fmt.Errorf("adaptive: checkpoint: %w", err)
	}
	opts.Batcher, opts.Interrupt = ropts.Batcher, ropts.Interrupt
	s, err := NewSession(inst, algo, opts, algoRNG)
	if err != nil {
		return nil, fmt.Errorf("adaptive: checkpoint: %w", err)
	}
	if err := s.replay(deltas, rounds, removed); err != nil {
		return nil, fmt.Errorf("adaptive: checkpoint: %w", err)
	}
	if havePending || done {
		if _, _, err := s.NextSeed(); err != nil {
			return nil, fmt.Errorf("adaptive: checkpoint: replaying round %d: %w", len(s.seeds)+1, err)
		}
	}
	if s.done != done || s.havePending != havePending || s.pending != pending {
		return nil, fmt.Errorf("adaptive: checkpoint: replay ends at (done %v, pending %v, last proposal %d), the record at (done %v, pending %v, last proposal %d)",
			s.done, s.havePending, s.pending, done, havePending, pending)
	}
	return s, nil
}

// replay drives a fresh session through a recorded history: each delta
// is applied once as many rounds have been observed as it records, and
// each round's proposal is checked against its recorded seed before that
// round's share of the removal log is observed. Any disagreement names
// the round.
func (s *Session) replay(deltas []replayDelta, rounds []byte, removed []graph.NodeID) error {
	next := 0
	mutate := func(round int) error {
		for ; next < len(deltas) && deltas[next].round == uint64(round); next++ {
			if _, err := s.Mutate(deltas[next].inserts, deltas[next].deletes); err != nil {
				return fmt.Errorf("replaying topology delta %d/%d after round %d: %w", next+1, len(deltas), round, err)
			}
		}
		return nil
	}
	off := 0
	for i := 0; i < len(rounds)/8; i++ {
		if err := mutate(i); err != nil {
			return err
		}
		seed := graph.NodeID(binary.LittleEndian.Uint32(rounds[8*i:]))
		k := binary.LittleEndian.Uint32(rounds[8*i+4:])
		u, stop, err := s.NextSeed()
		switch {
		case err != nil:
			return fmt.Errorf("replaying round %d: %w", i+1, err)
		case stop:
			return fmt.Errorf("replay diverges at round %d: the policy stops where the record seeds %d", i+1, seed)
		case u != seed:
			return fmt.Errorf("replay diverges at round %d: the policy proposes %d where the record seeds %d", i+1, u, seed)
		}
		if uint64(k) > uint64(len(removed)-off) {
			return fmt.Errorf("round %d records %d removals, the removal log holds %d more", i+1, k, len(removed)-off)
		}
		if err := s.Observe(removed[off : off+int(k)]); err != nil {
			return fmt.Errorf("replaying round %d: %w", i+1, err)
		}
		off += int(k)
		if v := s.res.Version(); v != int64(off) {
			return fmt.Errorf("round %d records %d removals, its replay removed %d", i+1, k, v-int64(off)+int64(k))
		}
	}
	if err := mutate(len(rounds) / 8); err != nil {
		return err
	}
	if next < len(deltas) {
		return fmt.Errorf("topology delta %d/%d records round %d, out of order or past the %d recorded rounds",
			next+1, len(deltas), deltas[next].round, len(rounds)/8)
	}
	if off != len(removed) {
		return fmt.Errorf("the removal log holds %d nodes, the rounds remove %d", len(removed), off)
	}
	return nil
}
