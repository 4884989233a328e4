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
//     survive across batches, so a warm pool draws a whole attempt with
//     zero allocations (asserted by TestAppendParallelWarmNoAllocs at one
//     and two workers). Pools live on a per-model free list: every batch
//     borrows a warm one and hands it back, so no campaign pays the O(N)
//     scratch again, and a one-shot draw through a fresh Batcher gets the
//     same sets.
//   - Base (base.go): an instance's shared first look — an append-only
//     pool of RR sets on the full graph whose set i comes from chunk
//     ⌊i/64⌋ of one instance key, so it is a pure function of (key,
//     length) whatever order, worker count or campaign grew it
//     (TestBaseGrowthOrderIndependent). It grows lazily, in whole chunks
//     under its own mutex, and publishes exactly sized arrays it never
//     writes again, read without the lock. A Batcher with a base attached
//     copies its shortfall from it while the residual is untouched and
//     the collection holds only base sets; the copies count as reused,
//     never as drawn, and the collection's node-to-set index starts from
//     the base's. A base built with a target table also keeps its
//     targets' counts at every chunk boundary, so a campaign takes its
//     copies' counts as a vector difference instead of scanning them.
//   - Collection (collection.go): CSR/arena storage — one flat node arena
//     plus per-set offsets — so a collection is ~4 contiguous allocations
//     regardless of θ, and its arena grows by what it holds. Reset empties
//     it in place keeping capacity (the pool's warm path). One node-to-set
//     index answers every "which sets hold u" question: chains of arena
//     entries hashed by node, built in one pass on first use and extended
//     over the sets appended since; set ids are slots.
//     Collection.Filter drops the sets no longer valid on a mutated
//     residual, enabling cross-round reuse: a set drawn on G_i that
//     avoids every node deleted since is kept for G_j (j > i). Kept sets
//     are biased — each is a G_i set conditioned on avoiding the deleted
//     nodes, not a G_j set (TestFilterTiltsSurvivorLaw) — see Filter for
//     the size of the deviation. Filter and InvalidateTouching (the sets
//     a topology delta touched) share one drop pass, which costs
//     O(postings of the dropped nodes + entries of the dropped sets), not
//     O(arena): the index finds the sets, and each becomes a tombstone
//     that Len, Coverage and later walks no longer count. The live sets
//     move down in order — and slots change — only when the dropped
//     entries reach the live ones (TestDropMatchesReferenceScan checks
//     every step against a per-set rescan). Checkpoints write the live
//     sets only.
//   - Coverage queries (coverage.go, select.go): CovR(S), incremental
//     marginals via Marks (stamps per slot), and heap-based CELF greedy
//     max-coverage — the selection step of IMM (§VI-A). Both walk the
//     node-to-set index and are serial: the greedy takes its initial
//     gains from one counting pass over the arena, leaves candidates no
//     set holds out of the heap, and refreshes each stale heap top in
//     place. Workers parallelize RR generation only.
//   - Coverage tracker and Batcher (tracker.go): Coverage maintains the
//     containment counts of a target set — one int32 per target plus a
//     few scratch counters, indexed through a shared TargetIndex (one
//     uint16 counter number per node, so counting an entry is a load and
//     an increment without a branch) — incrementally as batches are
//     appended, and gives a dropped set's counts back in the drop pass,
//     so a per-batch stopping-rule check costs O(batch + alive) instead
//     of a walk of every target's chain, and a fresh campaign's counting
//     state is O(|T|), not O(N). Count answers for targets only; the
//     adaptive steppers ask about alive targets and nothing else asks
//     at all. Batcher packages the draw/filter/top-up cycle —
//     collection, tracker, optional base, accounting — and is the
//     package's only way to draw RR sets: both adaptive sampling
//     policies, sampled ADG rounds, IMM's θ search and the one-shot
//     draws of the nonadaptive greedy and imm.SpreadLowerBound go
//     through it, and its Stats value is the one record of sampling
//     work they report. The tracker counts only what Batcher.Count asks
//     for. The warm loop is allocation-free
//     (TestBatcherWarmLoopNoAllocs).
package ris
