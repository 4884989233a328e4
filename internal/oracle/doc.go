// Package oracle provides the spread oracles of the paper's
// (conf_icde_Huang0XSL20) oracle model (§III-B), where E[I_G(S)] is
// assumed accessible in O(1); the adaptive greedy analysis of §V is
// stated against such an oracle before Algorithms 3 and 4 replace it with
// sampling.
//
// Three implementations:
//
//   - Exact: enumerates all 2^m realizations. Exponential; for the tiny
//     graphs in tests and the Fig. 1 worked example (m ≤ ~20) it is the
//     ground truth everything else is validated against.
//   - MonteCarlo: averages forward simulations; an (ε,δ)-approximate
//     stand-in for the oracle on larger graphs, with memoization keyed on
//     the residual version and seed set.
//   - RIS: estimates through an RR-set collection maintained per residual
//     version; cheapest, used by ADG on graphs too large for Exact. With
//     SetReuse it validity-filters the cached collection on residual
//     changes (ris.Collection.Filter) and regenerates only the shortfall,
//     the same cross-round reuse the sampling algorithms apply; see
//     SetReuse for the bias of kept sets that keeps it opt-in.
//
// All oracles answer on residual views so ADG can query E[I_{G_i}(·)]
// round by round.
package oracle
