package adaptive

import (
	"fmt"

	"repro/internal/cascade"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/ris"
)

// Instance is one ATP problem: a weighted graph, a diffusion model, the
// target set T, and the per-target seeding costs.
type Instance struct {
	G       *graph.Graph
	Model   cascade.Model
	Targets []graph.NodeID
	Costs   *cost.Model

	// targetIdx is the node-to-slot table of Targets the sampled
	// steppers count coverage through (see targetIndex); a prepared
	// instance builds it once, and the instances its deltas derive share
	// it.
	targetIdx *ris.TargetIndex
	// first is the shared first look of a prepared instance (nil on one
	// built by hand or derived by a topology delta): the RR sets on the
	// untouched graph that every sequential ADDATP/HATP campaign copies
	// instead of drawing, keyed by the instance fingerprint, with their
	// targets' counts per chunk.
	first *ris.Base
}

// targetIndex returns the instance's target table, or a private one for
// an instance built by hand.
func (inst *Instance) targetIndex() *ris.TargetIndex {
	if inst.targetIdx != nil {
		return inst.targetIdx
	}
	return ris.NewTargetIndex(inst.G.N(), inst.Targets)
}

// on returns the instance a topology delta derives on g, its ApplyDelta
// descendant: the same model, targets, target table and costs, and no
// first look (its sets are draws on the old graph).
func (inst *Instance) on(g *graph.Graph) *Instance {
	return &Instance{G: g, Model: inst.Model, Targets: inst.Targets, Costs: inst.Costs, targetIdx: inst.targetIdx}
}

// FirstLook returns the size of the instance's shared first look: the
// sets drawn so far and their bytes (ris.Base.Footprint), 0 and 0 on an
// instance without one. It never waits on a growth in progress.
func (inst *Instance) FirstLook() (sets int, bytes int64) {
	if inst.first == nil {
		return 0, 0
	}
	return inst.first.Footprint()
}

// Validate checks the instance is runnable.
func (inst *Instance) Validate() error {
	if inst.G == nil {
		return fmt.Errorf("adaptive: nil graph")
	}
	if len(inst.Targets) == 0 {
		return fmt.Errorf("adaptive: empty target set")
	}
	if len(inst.Targets) > ris.MaxTargets {
		return fmt.Errorf("adaptive: %d targets, more than the %d coverage can count", len(inst.Targets), ris.MaxTargets)
	}
	n := graph.NodeID(inst.G.N())
	for _, u := range inst.Targets {
		if u < 0 || u >= n {
			return fmt.Errorf("adaptive: target %d outside [0,%d)", u, n)
		}
	}
	if inst.Costs == nil {
		return fmt.Errorf("adaptive: nil cost model")
	}
	return nil
}

// Environment reveals one realization φ to an adaptive policy seed by
// seed: Observe(u) returns the nodes newly activated by seeding u on the
// current residual graph and deletes them, exactly the paper's feedback
// model (full-adoption feedback).
type Environment struct {
	rz        *cascade.Realization
	res       *graph.Residual
	activated int
}

// NewEnvironment wraps a sampled realization.
func NewEnvironment(rz *cascade.Realization) *Environment {
	return &Environment{rz: rz, res: graph.NewResidual(rz.Graph())}
}

// NewEnvironmentAt wraps a realization mid-campaign: res is the residual
// after the seeds observed so far and activated their realized spread.
// The checkpoint-resume path uses it (with Session.CloneResidual) to
// rebuild a simulated environment in lockstep with a restored session.
func NewEnvironmentAt(rz *cascade.Realization, res *graph.Residual, activated int) *Environment {
	return &Environment{rz: rz, res: res, activated: activated}
}

// Follow moves the environment onto g after a topology delta, g being the
// ApplyDelta descendant of its graph (Session.Instance().G after
// Session.Mutate): the world keeps its key (cascade.Realization.On) and
// the residual its removals, so observations continue in lockstep with
// the session and the environment never reports an edge g lacks.
func (e *Environment) Follow(g *graph.Graph) {
	e.rz = e.rz.On(g)
	e.res.SetGraph(g)
}

// Residual returns the current residual view G_i. Policies may read it
// (and sample RR sets on it) but must mutate it only through Observe.
func (e *Environment) Residual() *graph.Residual { return e.res }

// Observe seeds u, returns the activated set A(u) on the residual graph
// (u included if alive), and removes it. Seeding a dead node activates
// nothing.
func (e *Environment) Observe(u graph.NodeID) []graph.NodeID {
	a := cascade.Activate(e.rz, e.res, []graph.NodeID{u})
	e.activated += len(a)
	return a
}

// Activated returns the total number of nodes activated so far — the
// realized spread I_φ(S) of everything seeded through this environment.
func (e *Environment) Activated() int { return e.activated }

// RunResult reports one policy run on one realization.
type RunResult struct {
	Algorithm string         `json:"algorithm"`
	Seeds     []graph.NodeID `json:"seeds"`  // in seeding order
	Rounds    int            `json:"rounds"` // seeding rounds (== len(Seeds))
	Spread    int            `json:"spread"` // realized I_φ(S)
	Cost      float64        `json:"cost"`
	Profit    float64        `json:"profit"` // Spread − Cost

	// Sampling accounting (see ris.Stats), zero for exact oracles and
	// all-targets. ADDATP and HATP count as RRReused only the carried-over
	// sets a look needed (at most its target), the sets copied from the
	// instance's shared first look, and the survivors of each topology
	// delta. Under NSG, RRPeakBytes includes the node-to-set index
	// its selection builds.
	ris.Stats
	// Fallbacks counts rounds where the refinement budget ran out and the
	// decision fell back to the point estimate (sampling policies only).
	Fallbacks int `json:"fallbacks"`
	// Sampler names the stopping-rule policy that drove the run
	// (PolicySequential or PolicyFixed); empty for non-sampling policies.
	Sampler string `json:"sampler,omitempty"`
	// Attempts counts stopping-rule evaluations: fixed-θ attempts under
	// PolicyFixed, batch-boundary looks under PolicySequential.
	// Attempts − RRBatches looks were answered from carried-over sets.
	Attempts int `json:"attempts"`
	// CertifiedEarly counts rounds whose seed/stop decision was certified
	// strictly below the policy's sampling frontier (the θ cap for
	// sequential, the maxRefine-th attempt for fixed) — the rounds where
	// sequential stopping saves draws.
	CertifiedEarly int `json:"certified_early"`
}

// finishResult builds the outcome skeleton from the committed seeds and
// the realized spread (a session tracks its own spread instead of holding
// the environment).
func (inst *Instance) finishResult(algo string, seeds []graph.NodeID, spread int) *RunResult {
	c := inst.Costs.Total(seeds)
	return &RunResult{
		Algorithm: algo,
		Seeds:     append([]graph.NodeID(nil), seeds...),
		Rounds:    len(seeds),
		Spread:    spread,
		Cost:      c,
		Profit:    float64(spread) - c,
	}
}

// aliveTargets filters the targets still alive in res, preserving order.
func (inst *Instance) aliveTargets(res *graph.Residual, buf []graph.NodeID) []graph.NodeID {
	buf = buf[:0]
	for _, u := range inst.Targets {
		if res.Alive(u) {
			buf = append(buf, u)
		}
	}
	return buf
}
