// Package oracle provides the spread oracles of the paper's
// (conf_icde_Huang0XSL20) oracle model (§III-B), where E[I_G(S)] is
// assumed accessible in O(1); the adaptive greedy analysis of §V is
// stated against such an oracle before Algorithms 3 and 4 replace it with
// sampling.
//
// Two implementations, both exact and exponential, for the tiny graphs in
// tests and the worked examples — the ground truth everything else is
// validated against:
//
//   - Exact: enumerates all 2^m IC realizations (m ≤ MaxExactEdges).
//   - ExactLT: enumerates the LT triggering model's in-parent picks.
//
// Both answer on residual views so ADG can query E[I_{G_i}(·)] round by
// round. On larger graphs ADG estimates spreads from RR sets instead
// (ris.Batcher, see package adaptive).
package oracle
