// Package ris implements Reverse Influence Sampling (Borgs et al., SODA
// 2014): random reverse-reachable (RR) sets, the estimation backbone of
// the paper's sampling algorithms — ADDATP (conf_icde_Huang0XSL20
// Algorithm 3), HATP (Algorithm 4) — and of the nonadaptive baselines.
//
// An RR set R(v) for a uniformly random root v contains every node u that
// reaches v in a random realization. The fundamental identity
//
//	E[I(S)] = n * Pr[R ∩ S ≠ ∅]
//
// turns coverage counting over a sample of RR sets into an unbiased spread
// estimator. On residual graphs (the paper's G_i, §III), roots are drawn
// uniformly from the n_i alive nodes and reverse traversal ignores dead
// nodes, estimating E[I_{G_i}(S)] with the same identity scaled by n_i.
//
// The package is organized as:
//
//   - sampler (ris.go): single-threaded RR-set generation on a residual
//     view, with scratch reuse so a draw allocates only its arena append.
//     On graphs with compressed in-probabilities (graph.InUniform — the
//     weighted-cascade and uniform weightings) the bulk IC kernel
//     (appendFastIC, the only IC fast path) visits a node in
//     O(successes) RNG draws instead of O(in-degree): the successful
//     in-edge count comes from one success-count table draw (or an
//     rng.Geometric jump sequence for nodes without a table), and the
//     success positions are placed uniformly — the same joint distribution
//     as one independent coin per edge, up to the tables' documented 2^-32
//     quantization. LT picks its in-parent by inverting the prefix scan in
//     O(1). Trivalency-style mixed graphs take the per-edge reference path
//     unchanged.
//   - samplerPool (parallel.go): the one bulk draw path, for every worker
//     count. A batch takes one key from its parent stream; chunk k is the
//     64 consecutive sets drawn from the substream keyed by chunk k, and
//     chunks land in index order, so the sets depend on (seed, count)
//     only (TestAppendParallelWorkerCountIndependent). Each worker draws a
//     contiguous run of chunks with the bulk kernel — worker 0 straight
//     into the destination, the rest into pooled collections spliced in
//     after it. Worker scratch, RNG stream objects and output collections
//     survive across attempts, rounds, and algorithms, so a warm pool
//     draws a whole attempt with zero allocations (asserted by
//     TestAppendParallelWarmNoAllocs at one and two workers). Every
//     Batcher owns one, so a one-shot draw through a fresh Batcher gets
//     the same sets.
//   - Collection (collection.go): CSR/arena storage — one flat node arena
//     plus per-set offsets, and a CSR inverted index built on first use —
//     so a collection is ~4 contiguous allocations regardless of θ. Reset
//     empties it in place keeping capacity (the pool's warm path);
//     Collection.Filter compacts in place to the sets still valid on a
//     mutated residual, enabling cross-round reuse: a set drawn on G_i
//     that avoids every node deleted since is kept for G_j (j > i). Kept
//     sets are biased — each is a G_i set conditioned on avoiding the
//     deleted nodes, not a G_j set (TestFilterTiltsSurvivorLaw) — see
//     Filter for the size of the deviation. Filter and InvalidateTouching
//     (the sets a topology delta touched) share one drop pass: a flat
//     arena scan against a bitset of the removed or touched nodes.
//   - Coverage queries (coverage.go, select.go): CovR(S), incremental
//     marginals via Marks, and heap-based CELF greedy max-coverage — the
//     selection step of IMM (§VI-A). Both are serial: BuildIndex is one
//     counting sort over the arena, and the greedy refreshes each stale
//     heap top in place. Workers parallelize RR generation only.
//   - Coverage tracker and Batcher (tracker.go): Coverage maintains
//     per-node containment counts incrementally as batches are appended
//     and is compacted in lockstep by the drop pass, so a per-batch
//     stopping-rule check costs O(batch + alive) instead of an inverted
//     index rebuild. Batcher packages the draw/filter/top-up cycle —
//     pool, collection, tracker, accounting — and is the package's only
//     way to draw RR sets: both adaptive sampling policies, sampled ADG
//     rounds, IMM's θ search and the one-shot draws of the nonadaptive
//     greedy and imm.SpreadLowerBound go through it, and its Stats value
//     is the one record of sampling work they report. The tracker counts
//     only what Batcher.Count asks for. The warm loop is allocation-free
//     (TestBatcherWarmLoopNoAllocs).
package ris
