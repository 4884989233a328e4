package sweep

import (
	"fmt"

	"repro/internal/adaptive"
	"repro/internal/cascade"
	"repro/internal/gen"
	"repro/internal/rng"
)

// Temporal (churn) cells run the same experiment as static cells but
// mutate the topology mid-campaign: every `every` observed rounds the
// session applies a gen.ChurnDeltas edit (delete frac·M edges, insert as
// many fresh ones), invalidates only the RR sets touching a changed
// node, and continues on the new graph. The realized world survives the
// delta: it is rebuilt on the mutated graph from the realization's own
// world stream, so its key is unchanged and only coins of edges the delta
// touched differ, with the residual view kept in lockstep. The
// environment never reports an edge the graph no longer has.
//
// Determinism: every RNG below is a pure function of (spec seed, rep,
// round), never of wall clock or scheduling — churn cells are as
// journal-stable as static ones.

// churnSeed derives the delta-generation stream for one (rep, round).
func churnSeed(seed uint64, rep, round int) uint64 {
	return seed ^ (0x9E3779B97F4A7C15 * (uint64(rep)*1_000_003 + uint64(round)))
}

// runChurn is the temporal-cell counterpart of adaptive.RunExperiment:
// it drives each realization's session round by round, churning the
// topology on schedule, and aggregates the runs into the same Report.
// The second return is the total number of deltas applied across all
// realizations.
func runChurn(spec *Spec, p *Prepared, cell Cell, frac float64, every int, opts adaptive.RunOptions) (*adaptive.Report, int, error) {
	seed := spec.Seed + 100
	root := rng.New(seed)
	rep := &adaptive.Report{Algorithm: cell.Algo, Realizations: spec.Reps}
	mutations := 0
	for i := 0; i < spec.Reps; i++ {
		if opts.Interrupt != nil {
			if err := opts.Interrupt(); err != nil {
				return nil, 0, fmt.Errorf("realization %d/%d: %w", i, spec.Reps, err)
			}
		}
		// Same stream discipline as the static path: world first, then
		// algorithm, both split off the shared root.
		worldRNG := root.Split()
		algoRNG := root.Split()
		world := *worldRNG // the stream a delta rebuilds the world from
		env := adaptive.NewEnvironment(cascade.Sample(p.Inst.G, p.Inst.Model, worldRNG))
		sess, err := adaptive.NewSession(p.Inst, cell.Algo, opts, algoRNG)
		if err != nil {
			return nil, 0, err
		}
		round := 0
		for {
			u, stop, err := sess.NextSeed()
			if err != nil {
				return nil, 0, fmt.Errorf("realization %d round %d: %w", i, round, err)
			}
			if stop {
				break
			}
			if err := sess.Observe(env.Observe(u)); err != nil {
				return nil, 0, fmt.Errorf("realization %d round %d: %w", i, round, err)
			}
			round++
			if round%every != 0 {
				continue
			}
			ins, dels := gen.ChurnDeltas(sess.Instance().G, frac, rng.New(churnSeed(seed, i, round)))
			if len(ins) == 0 && len(dels) == 0 {
				continue
			}
			if _, err := sess.Mutate(ins, dels); err != nil {
				return nil, 0, fmt.Errorf("realization %d round %d: mutate: %w", i, round, err)
			}
			mutations++
			wr := world
			rz := cascade.Sample(sess.Instance().G, p.Inst.Model, &wr)
			env = adaptive.NewEnvironmentAt(rz, sess.CloneResidual(), sess.Spread())
		}
		rep.Add(sess.Result())
	}
	rep.Finalize()
	return rep, mutations, nil
}
