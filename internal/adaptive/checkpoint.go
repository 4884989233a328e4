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

// Checkpoint format: a versioned little-endian binary blob holding
// everything a mid-campaign Session needs to resume bit-identically in
// another process — committed seeds and spread, the pending proposal, the
// algorithm RNG's raw state, the residual's removal log, and the
// per-algorithm stepper state (RR collection snapshots plus accounting).
//
// Deliberately absent, because each is a pure function of what is stored:
// coverage counts and the CSR inverted index (rebuilt from the restored
// sets), sampler pools (stateless between batches — every batch keys its
// substreams off the session RNG), the residual's O(N) alive list (replayed
// from the removal log, see below), and wall-clock telemetry (SamplingNS
// restarts at zero; every other RunResult field of a resumed campaign
// matches the uninterrupted run exactly).
//
// The sampling options ride in the blob and are authoritative on resume.
// Workers among them is the campaign's configured parallelism, not a
// determinism input: RR sets depend on the seed and the count only, so a
// blob written on one core count resumes identically on another. An
// instance fingerprint (graph shape, model, targets, costs) guards
// against restoring onto the wrong instance. Unknown versions and torn
// payloads fail loudly.
//
// Layout of version 7, in order (u64 counts precede every list; nodes
// and int32s are 4 bytes each, edges 16: from u32, to u32, p f64):
//
//	magic u64, version u32, base fingerprint u64
//	delta log: count u64, then per delta: inserts []edge, deletes []edge
//	algo string, sampling options (policy string, ζ, ε, δ f64, workers,
//	no-reuse bool), ADG/NSG theta
//	done, havePending bool, pending u32, spread, seeds []node
//	RNG present bool [, state u64, inc u64]
//	residual version i64, removals []node (oldest first)
//	stepper tag u8, stepper payload (sampling: fallbacks, attempts,
//	certified-early, reused, then the batcher — collection present
//	bool [, arena []node, offsets []int32, roots []node, version i64]
//	over its live sets only, then its stats; ADG: sampled bool [, RR
//	stream state u64, inc u64, batcher]; NSG: selected bool, chosen
//	[]node, next index, stats)
//
// where stats is the ris.Stats counters but SamplingNS: drawn,
// requested, reused, peak bytes i64, batches, visits i64, edge
// touches i64.
//
// The fingerprint names the *base* instance (the one the session was
// created on); ResumeSession reconstructs the current graph by replaying
// the delta log through graph.ApplyDelta — the replayed graph is per-node
// structurally identical to the original mutated one, so sampling stays
// bit-identical. The session keeps the log in this encoding as Mutate
// appends to it, so a checkpoint copies it in one piece.
//
// The residual is stored as its removal log (graph.Residual.Removed,
// oldest first): replaying it through Remove on a fresh residual of the
// same node set rebuilds the alive list in the exact order that feeds
// uniform root sampling. Session residuals are never Reset, so the
// version counter equals the log length; it is kept as a cross-check.
// A blob is therefore O(seeds + activations + deltas + RR sets), not
// O(N). Checkpoint sizes the blob with a counting pass over the same
// encoder and writes it into one exactly sized buffer.
//
// Version 7 dropped the sampling options' refinement bound and first
// batch size (now constants), the collection's requested count (the
// batcher's stats keep it), and gave NSG the full stats. Version 6
// added the batcher's visit and edge-touch counters, which version 5
// left out, so a resumed run restarted them at zero. Version 5
// replaced version 4's ADG oracle payload (kind, stream, θ,
// workers, reuse, version cache, batcher) with the sampled flag, stream
// and batcher: θ, workers and reuse come from the options above. Version
// 4 merged version 3's separate sequential and fixed sampling payloads
// into one; version 3 replaced version 2's alive list with the
// removal log; version 1 had no delta log. Older versions are rejected:
// no committed artifacts exist in those formats.
const (
	ckptMagic   = uint64(0x4154505345535331) // "ATPSESS1"
	ckptVersion = uint32(7)
)

// Stepper payload tags (one per algorithm family).
const (
	ckptStepSampling = uint8(iota + 1)
	ckptStepADG
	ckptStepNSG
	ckptStepAllTargets
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
func (w *ckptWriter) i64(v int64)   { w.u64(uint64(v)) }
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
func (w *ckptWriter) nodes(ns []graph.NodeID) {
	w.u64(uint64(len(ns)))
	if b := w.reserve(4 * len(ns)); b != nil {
		for i, u := range ns {
			binary.LittleEndian.PutUint32(b[4*i:], uint32(u))
		}
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
// checkpoint's byte layout (inserts then deletes, each a counted edge
// list). Session.Mutate calls it once per delta, so checkpoints copy the
// log instead of re-encoding it.
func appendDelta(log []byte, inserts, deletes []graph.Edge) []byte {
	log = slices.Grow(log, 16+16*(len(inserts)+len(deletes)))
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

func (r *ckptReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *ckptReader) i64() int64   { return int64(r.u64()) }
func (r *ckptReader) i() int       { return int(int64(r.u64())) }
func (r *ckptReader) f64() float64 { return math.Float64frombits(r.u64()) }

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

// words returns the raw bytes of a counted list of 4-byte words.
func (r *ckptReader) words() []byte {
	return r.take(4 * r.length())
}

func (r *ckptReader) nodes() []graph.NodeID {
	b := r.words()
	if b == nil {
		return nil
	}
	out := make([]graph.NodeID, len(b)/4)
	for i := range out {
		out[i] = graph.NodeID(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

func (r *ckptReader) i32s() []int32 {
	b := r.words()
	if b == nil {
		return nil
	}
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
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

// collection writes the snapshot's live sets only (ris.CollectionState's
// PutLive), so the blob is the same whether or not the collection has
// compacted its dropped sets away.
func (w *ckptWriter) collection(st ris.CollectionState) {
	sets, entries := st.Len()
	w.u64(uint64(entries))
	arena := w.reserve(4 * entries)
	w.u64(uint64(sets + 1))
	offsets := w.reserve(4 * (sets + 1))
	w.u64(uint64(sets))
	roots := w.reserve(4 * sets)
	w.i64(st.Version)
	if offsets != nil {
		st.PutLive(arena, offsets, roots)
	}
}

func (r *ckptReader) collection() ris.CollectionState {
	return ris.CollectionState{
		Arena:   r.nodes(),
		Offsets: r.i32s(),
		Roots:   r.nodes(),
		Version: r.i64(),
	}
}

// stats writes every ris.Stats counter but the wall-clock SamplingNS.
func (w *ckptWriter) stats(st ris.Stats) {
	w.i64(st.RRDrawn)
	w.i64(st.RRRequested)
	w.i64(st.RRReused)
	w.i64(st.RRPeakBytes)
	w.i(st.RRBatches)
	w.i64(st.RRVisits)
	w.i64(st.RREdgeTouches)
}

func (r *ckptReader) stats() ris.Stats {
	return ris.Stats{
		RRDrawn:       r.i64(),
		RRRequested:   r.i64(),
		RRReused:      r.i64(),
		RRPeakBytes:   r.i64(),
		RRBatches:     r.i(),
		RRVisits:      r.i64(),
		RREdgeTouches: r.i64(),
	}
}

// rng writes a generator's two state words.
func (w *ckptWriter) rng(g *rng.RNG) {
	state, inc := g.State()
	w.u64(state)
	w.u64(inc)
}

// rng reads a generator written by ckptWriter.rng. rng.SetState panics on
// an even increment, which no genuine checkpoint holds, so it is refused
// here.
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

func (w *ckptWriter) batcher(st ris.BatcherState) {
	w.boolean(st.HasCol)
	if st.HasCol {
		w.collection(st.Col)
	}
	w.stats(st.Stats)
}

func (r *ckptReader) batcher() ris.BatcherState {
	st := ris.BatcherState{HasCol: r.boolean()}
	if st.HasCol {
		st.Col = r.collection()
	}
	st.Stats = r.stats()
	return st
}

// ---------------------------------------------------------------------------
// Encode.

// Checkpoint serializes the session between API calls (never during one —
// sessions are quiescent between calls by construction). A voided session
// (Err != nil) cannot be checkpointed: its in-flight batch state is
// undefined. The blob is one allocation of exactly its final size.
func (s *Session) Checkpoint() ([]byte, error) {
	if s.err != nil {
		return nil, fmt.Errorf("adaptive: checkpoint of a voided session: %w", s.err)
	}
	var w ckptWriter
	if err := s.encode(&w); err != nil {
		return nil, err
	}
	w.buf, w.n = make([]byte, w.n), 0
	if err := s.encode(&w); err != nil {
		return nil, err
	}
	if w.n != len(w.buf) {
		panic(fmt.Sprintf("adaptive: checkpoint wrote %d bytes, sized %d", w.n, len(w.buf)))
	}
	return w.buf, nil
}

// encode runs the checkpoint encoder once over w (sizing or writing).
func (s *Session) encode(w *ckptWriter) error {
	w.u64(ckptMagic)
	w.u32(ckptVersion)
	// The fingerprint names the base instance; the delta log carries the
	// session to its current topology on resume.
	w.u64(s.baseFP)
	w.u64(uint64(s.nDeltas))
	w.raw(s.deltaLog)
	w.str(s.algo)

	// Options (authoritative on resume; see package comment above).
	w.str(s.opts.Sampling.Policy)
	w.f64(s.opts.Sampling.Zeta)
	w.f64(s.opts.Sampling.Eps)
	w.f64(s.opts.Sampling.Delta)
	w.i(s.opts.Sampling.Workers)
	w.boolean(s.opts.Sampling.NoReuse)
	w.i(s.opts.ADGTheta)
	w.i(s.opts.NSGTheta)

	// Campaign progress.
	w.boolean(s.done)
	w.boolean(s.havePending)
	w.u32(uint32(s.pending))
	w.i(s.spread)
	w.nodes(s.seeds)

	// Algorithm RNG (absent for RNG-free sessions: RunADG shells and
	// all-targets runs given a nil RNG).
	w.boolean(s.r != nil)
	if s.r != nil {
		w.rng(s.r)
	}

	// Residual view: its version and removal log (see the format comment).
	w.i64(s.res.Version())
	w.removals(s.res)

	// Stepper payload.
	switch st := s.step.(type) {
	case *samplingStepper:
		w.u8(ckptStepSampling)
		w.i(st.fallbacks)
		w.i(st.attempts)
		w.i(st.certifiedEarly)
		w.i64(st.reused)
		w.batcher(st.b.State())
	case *adgStepper:
		w.u8(ckptStepADG)
		w.boolean(st.b != nil)
		if st.b != nil {
			w.rng(st.r)
			w.batcher(st.b.State())
		}
	case *nsgStepper:
		w.u8(ckptStepNSG)
		w.boolean(st.selected)
		w.nodes(st.chosen)
		w.i(st.idx)
		w.stats(st.stats)
	case *allTargetsStepper:
		w.u8(ckptStepAllTargets)
		w.i(st.idx)
	default:
		return fmt.Errorf("adaptive: checkpoint: unknown stepper %T", s.step)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Decode.

// ResumeOptions configures a session restore.
type ResumeOptions struct {
	// Batcher, when non-nil, donates warm storage to the restored session
	// exactly as RunOptions.Batcher does for a fresh one (ADDATP and HATP
	// under either sampling policy; ignored otherwise).
	Batcher *ris.Batcher
	// Interrupt is installed via Session.SetInterrupt after restore.
	Interrupt func() error
}

// ResumeSession rebuilds a session from a Checkpoint blob on the same
// instance (same graph, model, targets, costs — enforced by fingerprint).
// The restored session's subsequent NextSeed/Observe sequence, and its
// final Result, are bit-identical to the uninterrupted original's (except
// SamplingNS, which restarts at zero).
func ResumeSession(inst *Instance, data []byte, ropts ResumeOptions) (*Session, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	r := &ckptReader{buf: data}
	if m := r.u64(); r.err == nil && m != ckptMagic {
		return nil, fmt.Errorf("adaptive: checkpoint: bad magic %#x (not a session checkpoint)", m)
	}
	verB := r.take(4)
	if r.err != nil {
		return nil, r.err
	}
	if v := binary.LittleEndian.Uint32(verB); v != ckptVersion {
		return nil, fmt.Errorf("adaptive: checkpoint: version %d not supported (this build reads %d)", v, ckptVersion)
	}
	baseFP := r.u64()
	if r.err == nil && baseFP != instFingerprint(inst) {
		return nil, fmt.Errorf("adaptive: checkpoint: instance fingerprint mismatch (checkpoint %#x, instance %#x) — wrong dataset, model, scale, or cost setting", baseFP, instFingerprint(inst))
	}
	// Replay the mutation log onto the base instance: the replayed graph is
	// per-node structurally identical to the one the checkpointed session
	// held, so the restored RR state and RNG stream line up exactly.
	nDeltas := r.length()
	logStart := r.off
	for i := 0; i < nDeltas; i++ {
		inserts, deletes := r.edges(), r.edges()
		if r.err != nil {
			break
		}
		ng, _, err := inst.G.ApplyDelta(inserts, deletes)
		if err != nil {
			return nil, fmt.Errorf("adaptive: checkpoint: replaying topology delta %d/%d: %w", i+1, nDeltas, err)
		}
		inst = inst.on(ng)
	}
	if r.err != nil {
		return nil, r.err
	}
	deltaLog := r.buf[logStart:r.off]
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
	opts.Batcher = ropts.Batcher
	opts.Interrupt = ropts.Interrupt

	done := r.boolean()
	havePending := r.boolean()
	var pending graph.NodeID
	if b := r.take(4); b != nil {
		pending = graph.NodeID(binary.LittleEndian.Uint32(b))
	}
	spread := r.i()
	seeds := r.nodes()

	var algoRNG *rng.RNG
	if r.boolean() {
		algoRNG = r.rng()
	}

	resVersion := r.i64()
	removals := r.words()

	stepTag := r.u8()
	if r.err != nil {
		return nil, r.err
	}

	// Rebuild the stepper without consuming the session RNG: every draw the
	// original made is already reflected in the serialized RNG state.
	var step stepper
	switch stepTag {
	case ckptStepSampling:
		if algo != AlgoADDATP && algo != AlgoHATP {
			return nil, fmt.Errorf("adaptive: checkpoint: sampling stepper under algorithm %q", algo)
		}
		fallbacks, attempts, certified, reused := r.i(), r.i(), r.i(), r.i64()
		bst := r.batcher()
		if r.err != nil {
			return nil, r.err
		}
		st, err := newSamplingStepper(inst, algo, opts.Sampling, ropts.Batcher)
		if err != nil {
			return nil, err
		}
		st.fallbacks, st.attempts, st.certifiedEarly, st.reused = fallbacks, attempts, certified, reused
		if err := st.b.RestoreState(bst, inst.G.N()); err != nil {
			return nil, err
		}
		step = st
	case ckptStepADG:
		if algo != AlgoADG {
			return nil, fmt.Errorf("adaptive: checkpoint: ADG stepper under algorithm %q", algo)
		}
		if !r.boolean() {
			// Exact oracle: stateless, rebuilt from the instance (must
			// succeed — it did when the checkpoint was written, and the
			// fingerprint matched).
			orc, err := exactOracle(inst)
			if err != nil {
				return nil, err
			}
			step = newOracleADG(orc)
			break
		}
		adgRNG := r.rng()
		bst := r.batcher()
		if r.err != nil {
			return nil, r.err
		}
		if opts.ADGTheta <= 0 {
			return nil, fmt.Errorf("adaptive: checkpoint: ADG theta %d", opts.ADGTheta)
		}
		st := newSampledADG(inst, opts, adgRNG)
		if err := st.b.RestoreState(bst, inst.G.N()); err != nil {
			return nil, err
		}
		step = st
	case ckptStepNSG:
		if algo != AlgoNSG {
			return nil, fmt.Errorf("adaptive: checkpoint: NSG stepper under algorithm %q", algo)
		}
		st := &nsgStepper{theta: opts.NSGTheta, workers: opts.Sampling.Workers}
		st.selected = r.boolean()
		st.chosen = r.nodes()
		st.idx = r.i()
		st.stats = r.stats()
		step = st
	case ckptStepAllTargets:
		if algo != AlgoAllTargets {
			return nil, fmt.Errorf("adaptive: checkpoint: all-targets stepper under algorithm %q", algo)
		}
		step = &allTargetsStepper{idx: r.i()}
	default:
		return nil, fmt.Errorf("adaptive: checkpoint: unknown stepper tag %d", stepTag)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(r.buf) {
		return nil, fmt.Errorf("adaptive: checkpoint: %d trailing bytes", len(r.buf)-r.off)
	}

	s := newShell(inst, algo, opts, algoRNG, step)
	s.baseFP = baseFP // newShell fingerprinted the replayed instance
	// The session owns its log; copying the blob's section verbatim keeps
	// the caller free to reuse data.
	s.deltaLog, s.nDeltas = slices.Clone(deltaLog), nDeltas
	n := graph.NodeID(inst.G.N())
	for i := 0; i < len(removals); i += 4 {
		u := graph.NodeID(binary.LittleEndian.Uint32(removals[i:]))
		if u < 0 || u >= n {
			return nil, fmt.Errorf("adaptive: checkpoint: removed node %d outside [0,%d)", u, n)
		}
		if !s.res.Remove(u) {
			return nil, fmt.Errorf("adaptive: checkpoint: removal log repeats node %d", u)
		}
	}
	if v := s.res.Version(); v != resVersion {
		return nil, fmt.Errorf("adaptive: checkpoint: residual version %d, removal log holds %d", resVersion, v)
	}
	s.seeds = append(s.seeds[:0], seeds...)
	s.spread = spread
	s.pending, s.havePending, s.done = pending, havePending, done
	if ropts.Interrupt != nil {
		s.SetInterrupt(ropts.Interrupt)
	}
	return s, nil
}
