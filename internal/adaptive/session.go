package adaptive

import (
	"fmt"

	"repro/internal/cascade"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/ris"
	"repro/internal/rng"
)

// Session is one adaptive campaign as an explicit, resumable state
// machine. The paper's algorithms are inherently interactive — propose a
// seed, observe the realized cascade, recurse on the residual — and a
// Session exposes exactly that interaction: NextSeed computes the
// algorithm's next decision (drawing RR batches as needed) and returns
// either the proposed seed or the stop signal; Observe feeds back the
// realized activations, which the session removes from its own residual
// view. The session owns every piece of per-campaign state — the
// graph.Residual, the stepper's ris.Batcher or oracle, the RNG, round
// counters — and lets a campaign be driven step-wise by an external
// feedback source. It also records its inputs (the RNG it started from,
// each round's seed and removals, each delta), which is all
// Checkpoint stores: ResumeSession replays them.
//
// The batch entry point Run is a thin drive-to-completion loop over a
// Session against an Environment.
//
// A Session is not safe for concurrent use; callers (the service layer)
// serialize access per campaign.
type Session struct {
	inst *Instance
	algo string
	opts RunOptions
	r    *rng.RNG

	// res is the session's own residual view, evolved by Observe in
	// lockstep with the caller's environment: both remove the same
	// activated nodes in the same order, so the alive-list order — and
	// therefore every subsequent uniform root draw — matches the
	// single-residual batch implementation exactly.
	res *graph.Residual

	seeds  []graph.NodeID
	spread int

	pending     graph.NodeID
	havePending bool
	done        bool
	err         error

	interrupt func() error
	step      stepper

	// The checkpoint's replay record. baseFP fingerprints the instance
	// the session was *created* on and rng0 is r's state then; rounds
	// holds each observed round's seed and removal count (appendRound,
	// preallocated to |T| rounds like seeds), and deltaLog the nDeltas
	// topology mutations applied since, each with the round count it
	// followed (appendDelta), both already in the checkpoint encoding.
	// Replaying them from the base instance reproduces the session: the
	// replayed graph is structurally identical to the original mutated
	// graph per node and therefore samples bit-identically.
	baseFP   uint64
	rng0     [2]uint64
	rounds   []byte
	deltaLog []byte
	nDeltas  int

	alive []graph.NodeID // aliveTargets scratch
}

// stepper is one algorithm's per-round decision procedure. next computes
// one round on s.res: (seed, false, nil) proposes a seed, (_, true, nil)
// stops the campaign. finishInto copies the stepper's accounting into a
// result. Steppers are quiescent between calls, and deterministic in the
// session's inputs, which is what lets a checkpoint hold only those.
type stepper interface {
	next(s *Session) (graph.NodeID, bool, error)
	finishInto(r *RunResult)
	setInterrupt(f func() error)
	// mutate adapts the stepper's cached sampling state to a topology
	// delta: inst is the post-delta instance and touched the nodes whose
	// RR membership invalidates a set (graph.DeltaResult.Touched). Called
	// between rounds only (no pending seed), and must consume no
	// randomness — the session RNG stream stays aligned with the
	// delta-free prefix of the campaign.
	mutate(inst *Instance, touched []graph.NodeID) error
}

// NewSession validates the instance and builds a stepping campaign for
// the named algorithm. r supplies every random draw the campaign makes;
// for AlgoADG on graphs beyond the exact oracle's reach, construction
// itself splits the RR-sampling stream off r.
func NewSession(inst *Instance, algo string, opts RunOptions, r *rng.RNG) (*Session, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	opts.setDefaults()
	opts.Sampling.setDefaults()
	var rng0 [2]uint64
	if r != nil {
		rng0[0], rng0[1] = r.State() // before ADG splits its stream off r
	}
	var step stepper
	var err error
	switch algo {
	case AlgoADG:
		step = newADGStepper(inst, opts, r)
	case AlgoADDATP, AlgoHATP:
		step, err = newSamplingStepper(inst, algo, opts.Sampling, opts.Batcher)
	case AlgoNSG:
		step = &nsgStepper{theta: opts.NSGTheta, workers: opts.Sampling.Workers}
	case AlgoAllTargets:
		step = &allTargetsStepper{}
	default:
		return nil, fmt.Errorf("adaptive: unknown algorithm %q (have %v)", algo, Algorithms)
	}
	if err != nil {
		return nil, err
	}
	s := &Session{
		inst:   inst,
		algo:   algo,
		opts:   opts,
		r:      r,
		res:    graph.NewResidual(inst.G),
		baseFP: instFingerprint(inst),
		// Preallocated to the only possible maximum so steady-state
		// stepping never grows them (the warm-instance zero-alloc contract).
		seeds:  make([]graph.NodeID, 0, len(inst.Targets)),
		rounds: make([]byte, 0, 8*len(inst.Targets)),
		step:   step,
		rng0:   rng0,
	}
	if opts.Interrupt != nil {
		s.SetInterrupt(opts.Interrupt)
	}
	return s, nil
}

// NextSeed advances the campaign to its next decision: (u, false, nil)
// proposes seeding u — the caller must Observe the realized activations
// before asking again (asking again without observing returns the same
// pending seed) — and (_, true, nil) means the campaign is over (no
// remaining target has certified-positive marginal profit, or every
// target is spent). A non-nil error voids the campaign.
func (s *Session) NextSeed() (graph.NodeID, bool, error) {
	if s.err != nil {
		return 0, true, s.err
	}
	if s.done {
		return 0, true, nil
	}
	if s.havePending {
		return s.pending, false, nil
	}
	if s.interrupt != nil {
		if err := s.interrupt(); err != nil {
			s.err = err
			return 0, true, err
		}
	}
	u, stop, err := s.step.next(s)
	if err != nil {
		s.err = err
		return 0, true, err
	}
	if stop {
		s.done = true
		return 0, true, nil
	}
	s.pending, s.havePending = u, true
	return u, false, nil
}

// Observe commits the pending seed and feeds back its realized cascade:
// activated is the set of nodes the seeding newly activated (the paper's
// full-adoption feedback; Environment.Observe returns exactly this set).
// The session removes them from its residual and counts them toward the
// realized spread. The seed itself always counts as activated: if the
// list omits it while it is still alive, it is removed after the listed
// nodes. Nodes already removed are ignored, so replaying an observation
// is harmless.
func (s *Session) Observe(activated []graph.NodeID) error {
	if s.err != nil {
		return s.err
	}
	if s.done {
		return fmt.Errorf("adaptive: Observe on a finished campaign")
	}
	if !s.havePending {
		return fmt.Errorf("adaptive: Observe without a pending seed (call NextSeed first)")
	}
	n := graph.NodeID(s.inst.G.N())
	for _, u := range activated {
		if u < 0 || u >= n {
			return fmt.Errorf("adaptive: observed node %d outside [0,%d)", u, n)
		}
	}
	s.seeds = append(s.seeds, s.pending)
	s.havePending = false
	before := s.spread
	for _, u := range activated {
		if s.res.Remove(u) {
			s.spread++
		}
	}
	if s.res.Remove(s.pending) {
		s.spread++
	}
	s.rounds = appendRound(s.rounds, s.pending, s.spread-before)
	return nil
}

// Mutate applies a topology delta to the live campaign between rounds:
// the graph gains inserts and loses deletes (graph.ApplyDelta), the
// residual view is re-homed in place onto the new graph with its
// alive-list order — and therefore every subsequent uniform root draw —
// preserved, and the stepper invalidates exactly the cached RR sets that
// touch a changed edge's target, keeping the rest. The delta is appended
// to the session's replay record with the number of rounds observed so
// far, so checkpoints taken after a mutation restore onto the base
// instance and replay to the current graph.
//
// Only quiescent sessions mutate: a pending seed must be Observed first
// (the proposal was computed on the old topology), and finished or voided
// campaigns refuse. Mutate consumes no randomness. The exact-enumeration
// ADG oracle is rebuilt on the new graph and fails if the delta pushed it
// past oracle.MaxExactEdges; nonadaptive steppers keep their upfront
// selection, exactly their seeds-chosen-in-advance semantics.
func (s *Session) Mutate(inserts, deletes []graph.Edge) (*graph.DeltaResult, error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.done {
		return nil, fmt.Errorf("adaptive: Mutate on a finished campaign")
	}
	if s.havePending {
		return nil, fmt.Errorf("adaptive: Mutate with a pending seed (Observe it first)")
	}
	newG, dres, err := s.inst.G.ApplyDelta(inserts, deletes)
	if err != nil {
		return nil, err
	}
	newInst := s.inst.on(newG)
	if err := s.step.mutate(newInst, dres.Touched); err != nil {
		return nil, err
	}
	s.inst = newInst
	s.res.SetGraph(newG)
	s.deltaLog = appendDelta(s.deltaLog, len(s.seeds), inserts, deletes)
	s.nDeltas++
	return dres, nil
}

// Drive runs the session to completion against an environment — the batch
// entry points' loop, shared with tests and the simulated service mode.
func (s *Session) Drive(env *Environment) (*RunResult, error) {
	for {
		u, stop, err := s.NextSeed()
		if err != nil {
			return nil, err
		}
		if stop {
			break
		}
		if err := s.Observe(env.Observe(u)); err != nil {
			return nil, err
		}
	}
	return s.Result(), nil
}

// Result snapshots the campaign outcome in the batch RunResult shape.
// Wall-clock-independent fields of a completed session match the batch
// run's exactly; on a live session it reports progress so far.
func (s *Session) Result() *RunResult {
	r := s.inst.finishResult(s.algo, s.seeds, s.spread)
	s.step.finishInto(r)
	return r
}

// Accessors for drivers (the service layer, checkpoint headers).
func (s *Session) Algo() string { return s.algo }
func (s *Session) Done() bool   { return s.done }
func (s *Session) Err() error   { return s.err }
func (s *Session) Rounds() int  { return len(s.seeds) }
func (s *Session) Spread() int  { return s.spread }

// Instance returns the session's current instance — the post-delta one
// after Mutate calls. Drivers re-homing environments or adopting
// per-epoch warm state read the live graph through it.
func (s *Session) Instance() *Instance { return s.inst }

// Mutations returns the number of topology deltas applied so far (the
// current graph's epoch relative to the base instance).
func (s *Session) Mutations() int { return s.nDeltas }

// Seeds returns a copy of the seeds committed so far, in seeding order.
func (s *Session) Seeds() []graph.NodeID {
	return append([]graph.NodeID(nil), s.seeds...)
}

// Pending returns the proposed-but-unobserved seed, if any.
func (s *Session) Pending() (graph.NodeID, bool) { return s.pending, s.havePending }

// CloneResidual returns an independent copy of the session's residual
// view, alive-list order included — the resume path uses it to rebuild a
// simulated environment in lockstep with the restored session.
func (s *Session) CloneResidual() *graph.Residual { return s.res.Clone() }

// SetInterrupt installs a cancellation poll: it is checked before every
// round and, for the RR-sampling steppers, mid-batch inside the draw
// loops (ris.Batcher.SetInterrupt), so closing a campaign or
// exceeding a sweep cell budget stops within a stride of draws rather
// than at the next round boundary. The function must be safe for
// concurrent use.
func (s *Session) SetInterrupt(f func() error) {
	s.interrupt = f
	s.step.setInterrupt(f)
}

// ---------------------------------------------------------------------------
// ADG stepper: the oracle-greedy round body.

// adgStepper seeds the alive target with the largest estimated marginal
// profit. The estimate comes from the exact oracle on graphs small enough
// for enumeration; otherwise it is n_i·Cov(u)/θ over θ = ADGTheta RR sets
// of the residual, read from a ris.Batcher's coverage counts exactly as
// the sampling stepper reads its point estimate.
type adgStepper struct {
	orc   oracle.Oracle // nil when sampling
	query []graph.NodeID

	// Sampling path (b is nil under an oracle): θ and the worker count
	// are the session's ADGTheta and Sampling.Workers.
	b *ris.Batcher
	r *rng.RNG
}

// newADGStepper builds the ADG round body for a fresh session: the
// per-model exact oracle when the graph fits, otherwise a batcher whose
// stream is split off r here.
func newADGStepper(inst *Instance, opts RunOptions, r *rng.RNG) *adgStepper {
	if orc, err := exactOracle(inst); err == nil {
		return newOracleADG(orc)
	}
	return newSampledADG(inst, opts, r.Split())
}

func newOracleADG(orc oracle.Oracle) *adgStepper {
	return &adgStepper{orc: orc, query: make([]graph.NodeID, 1)}
}

// newSampledADG draws on r. Across rounds the batcher keeps the RR sets
// still valid on the new residual and tops up the shortfall unless
// NoReuse, matching the sampling policies' reuse strategy.
func newSampledADG(inst *Instance, opts RunOptions, r *rng.RNG) *adgStepper {
	b := ris.NewBatcher(inst.Model)
	b.SetReuse(!opts.Sampling.NoReuse)
	b.SetTargets(inst.targetIndex())
	return &adgStepper{b: b, r: r}
}

// exactOracle returns the per-model exact enumerator, or an error when
// the graph is beyond its reach.
func exactOracle(inst *Instance) (oracle.Oracle, error) {
	var orc oracle.Oracle
	var err error
	switch inst.Model {
	case cascade.IC:
		orc, err = oracle.NewExact(inst.G)
	case cascade.LT:
		orc, err = oracle.NewExactLT(inst.G)
	default:
		err = fmt.Errorf("adaptive: no exact oracle under model %v", inst.Model)
	}
	if err != nil {
		return nil, err
	}
	return orc, nil
}

func (st *adgStepper) setInterrupt(f func() error) {
	if st.b != nil {
		st.b.SetInterrupt(f)
	}
}

func (st *adgStepper) mutate(inst *Instance, touched []graph.NodeID) error {
	if st.b != nil {
		st.b.Invalidate(touched)
		return nil
	}
	// Exact enumeration is captured against one graph; rebuild on the new
	// one (stateless, no randomness). A delta can push the graph past the
	// enumeration bound — surface that, don't seed on stale worlds.
	orc, err := exactOracle(inst)
	if err != nil {
		return err
	}
	st.orc = orc
	return nil
}

func (st *adgStepper) next(s *Session) (graph.NodeID, bool, error) {
	res := s.res
	s.alive = s.inst.aliveTargets(res, s.alive)
	if len(s.alive) == 0 {
		return 0, true, nil
	}
	n := 0 // RR sets the estimates rest on
	if st.b != nil {
		st.b.Sync(res)
		var err error
		if n, err = st.b.GrowTo(res, st.r, s.opts.ADGTheta, s.opts.Sampling.Workers); err != nil {
			return 0, true, err
		}
	}
	best := graph.NodeID(-1)
	bestProfit := 0.0
	for _, u := range s.alive {
		var spread float64
		if st.b != nil {
			spread = ris.EstimateSpread(st.b.Count(u), n, res.N())
		} else {
			st.query[0] = u
			spread = st.orc.ExpectedSpread(res, st.query)
		}
		p := spread - s.inst.Costs.Cost(u)
		if p > bestProfit || (p == bestProfit && best >= 0 && u < best) {
			best, bestProfit = u, p
		}
	}
	if best < 0 || bestProfit <= 0 {
		return 0, true, nil
	}
	return best, false, nil
}

func (st *adgStepper) finishInto(r *RunResult) {
	if st.b != nil {
		r.Stats = st.b.Stats()
	}
}

// ---------------------------------------------------------------------------
// Nonadaptive steppers: selection happens once, then the chosen seeds are
// dispensed one per round so nonadaptive baselines flow through the same
// session lifecycle (and the same service endpoints) as the adaptive
// policies.

type nsgStepper struct {
	theta, workers int

	selected bool
	chosen   []graph.NodeID
	idx      int
	stats    ris.Stats
}

func (st *nsgStepper) setInterrupt(func() error) {}

// Nonadaptive: seeds were chosen upfront on the pre-delta graph and are
// dispensed regardless — the world changing underneath is exactly the
// regime the nonadaptive baseline is measured in.
func (st *nsgStepper) mutate(*Instance, []graph.NodeID) error { return nil }

func (st *nsgStepper) next(s *Session) (graph.NodeID, bool, error) {
	if !st.selected {
		chosen, stats, err := NonadaptiveGreedySelect(s.inst, st.theta, s.r, st.workers)
		if err != nil {
			return 0, true, err
		}
		st.selected = true
		st.chosen = chosen
		st.stats = stats
	}
	if st.idx >= len(st.chosen) {
		return 0, true, nil
	}
	u := st.chosen[st.idx]
	st.idx++
	// Chosen upfront, dispensed even if a previous seed's cascade already
	// activated it — seeding a dead node activates nothing, exactly the
	// nonadaptive semantics of the batch implementation.
	return u, false, nil
}

func (st *nsgStepper) finishInto(r *RunResult) { r.Stats = st.stats }

type allTargetsStepper struct {
	idx int
}

func (st *allTargetsStepper) setInterrupt(func() error) {}

func (st *allTargetsStepper) mutate(*Instance, []graph.NodeID) error { return nil }

func (st *allTargetsStepper) next(s *Session) (graph.NodeID, bool, error) {
	if st.idx >= len(s.inst.Targets) {
		return 0, true, nil
	}
	u := s.inst.Targets[st.idx]
	st.idx++
	return u, false, nil
}

func (st *allTargetsStepper) finishInto(*RunResult) {}
