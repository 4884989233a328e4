package adaptive

import (
	"repro/internal/oracle"
)

// RunADG executes the adaptive greedy policy of §III against a spread
// oracle: each round it queries E[I_{G_i}({u})] for every alive target u,
// seeds the one with the largest marginal profit if that profit is
// positive, observes the realized cascade through env, and recurses on
// the residual graph. It stops as soon as the best marginal profit is
// ≤ 0 (the unconstrained objective makes further seeding a loss).
//
// With the exact oracle this is the paper's ADG, the reference the
// sampling algorithms (ADDATP, HATP) are tested against. NewSession runs
// the same round body on RR-set estimates when the graph is too large to
// enumerate. Ties break on the smaller node ID so runs are deterministic.
func RunADG(inst *Instance, env *Environment, orc oracle.Oracle) (*RunResult, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	return newShell(inst, AlgoADG, RunOptions{}, nil, newOracleADG(orc)).Drive(env)
}
