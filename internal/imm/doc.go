// Package imm implements the IMM influence-maximization algorithm of
// Tang, Shi and Xiao (SIGMOD 2015), which the paper
// (conf_icde_Huang0XSL20, §VI-A) uses ("one of the state of the arts
// [28]") to pick the top-k influential users as the target seed set T of
// every experiment.
//
// IMM runs in two phases. The sampling phase searches exponentially
// decreasing guesses x = n/2^i of OPT_k; for each guess it draws enough
// RR sets that a greedy max-coverage solution exceeding the threshold
// certifies a lower bound LB on OPT_k with high probability. The node
// selection phase then draws θ(LB) RR sets and greedily picks k nodes
// (serial heap-based CELF over the CSR collection,
// ris.GreedyMaxCoverage; Options.Workers parallelizes RR generation
// only), giving a (1 − 1/e − ε)-approximation with probability
// 1 − 1/n^ℓ.
//
// The θ search runs through the shared ris.Batcher batch loop: the
// guesses form a doubling θ schedule on an unchanged residual, so by
// default each guess tops up the previous guess's collection instead of
// redrawing it, roughly halving the sampling-phase draws. The trade is
// that the guesses' stopping tests are no longer independent — each
// certificate still holds marginally, but the union bound over guesses
// becomes conservative rather than exact. The selection phase always
// draws a fresh collection in both modes: reusing the LB samples there
// is the documented flaw of original IMM (θ is sized from an LB
// estimated on the very samples the selection greedy would then
// overfit). Options.NoReuse additionally restores fresh-per-guess LB
// draws — Select is then bit-identical to the pre-batcher
// implementation, which is what `--sampler fixed` pipelines use.
// Result.PeakRRBytes reports the largest collection either phase
// materialized.
//
// SpreadLowerBound additionally exposes the Hoeffding lower bound
// E_l[I(T)] that §VI-A's cost calibration uses as the total seeding
// budget, keeping the baseline profit ρ(T) nonnegative.
package imm
