// Package service hosts adaptive campaigns as long-lived state behind the
// `repro serve` daemon: a warm instance registry, campaign lifecycle
// management, and checkpoint envelopes.
//
// # Instance registry
//
// Preparing an experiment instance — materializing the dataset, running
// IMM for the target set, calibrating costs — dominates the cost of short
// campaigns (sweep.Prepare takes seconds on the larger datasets; a
// campaign round takes milliseconds). The Registry caches Prepared
// instances keyed on (dataset, model, cost setting, scale) with
// ref-counted acquire/release accounting: concurrent campaigns on the
// same key share one preparation (guarded by sync.Once, so N concurrent
// acquisitions trigger exactly one Prepare), and idle instances beyond
// the configured maximum are evicted least-recently-used. Eviction never
// touches an instance with live references.
//
// Each instance also pools warm ris.Batchers: a campaign checks one out
// at creation and returns it at close, so a steady stream of campaigns on
// a warm instance reuses the RR collection arenas and node-to-set index of
// its predecessors instead of reallocating them.
// Batchers are Reset on checkout — campaign results are independent of
// what a donated batcher previously held.
//
// Registry entries are always the base (as-loaded, epoch 0) topology. A
// campaign's topology deltas (Campaign.Mutate, or a checkpoint's delta
// log replayed at restore) live in its session, which owns its
// post-delta graph, so a mutated campaign keeps its base instance from
// open to close: it returns its batcher there and its RR traffic counts
// under the base key. Key.Epoch only reports the session's delta count
// (Status, MutateInfo, checkpoint header); Acquire rejects any other
// epoch than 0.
//
// # Campaigns
//
// A Campaign wraps one adaptive.Session plus its feedback source. In
// simulate mode the server owns the realization (sampled from the
// campaign seed with the same RNG discipline as adaptive.RunExperiment,
// so a simulated campaign with seed S+100 reproduces realization 0 of
// `repro run --seed S` exactly) and Step advances one full
// propose-observe round. Mutate moves that world onto the new graph with
// adaptive.Environment.Follow, which keeps its key. In external mode the client drives the loop:
// Next returns the proposed seed, Observe feeds back the realized
// activations from whatever real-world process the campaign controls.
//
// # Checkpoints
//
// Campaign.Checkpoint writes a self-describing envelope — one JSON header
// line naming the instance key, algorithm, seed, and mode, followed by
// the binary adaptive.Session checkpoint — via temp file + atomic rename.
// The session part is its input log (RNG state, seeds, observed
// removals, topology deltas), never its RR sets. Restore reacquires the
// instance from the header and resumes the session by replaying that log
// (bit-identical continuation; see adaptive.ResumeSession), which redoes
// the campaign's sampling so far: a restore costs about as much as the
// steps it replays, a checkpoint little more than a copy of the log. In
// simulate mode, restore also rebuilds the environment in lockstep: the
// realization is keyed by the stored seed's world stream, so it is
// sampled on the session's (possibly delta-replayed) graph, next to a
// clone of the session's restored residual — the same world Follow
// carried across each delta. This is the only place a world is derived from the seed
// after the campaign starts. Server.Drain checkpoints every open
// campaign before shutdown, which is what makes `repro serve`
// kill/restart/resume transparent to clients.
package service
