// Package sweep is the resumable grid orchestrator behind `repro sweep`
// (and, as a single-model special case, `repro bench`): it executes the
// cross product of datasets × diffusion models × cost settings ×
// algorithms that conf_icde_Huang0XSL20's Table II experiments require,
// as a first-class fault-tolerant subsystem instead of a nested for-loop.
//
// Three properties make paper-scale sweeps practical:
//
//   - Shared preparation. All cells of one (dataset, model, cost) group
//     reuse one prepared instance — graph materialization, IMM target
//     selection, and cost calibration are the expensive,
//     algorithm-independent prefix of every cell.
//
//   - Concurrency with determinism. A pool of Spec.Parallel workers runs
//     independent cells concurrently; every cell derives its randomness
//     from Spec.Seed alone, so results are identical under any
//     scheduling, worker count, interruption, or resume. Canonical
//     normalizes the journal's completion order back to grid order.
//
//   - Crash safety. Every cell outcome is appended to a JSONL journal
//     (SWEEP_*.jsonl) and fsynced before the sweep moves on, so a crash
//     hours into a grid loses at most the in-flight cell. Resume skips
//     the recorded results and reruns the rest; per-cell wall-clock
//     budgets (checked between realizations) and SIGINT checkpointing
//     bound how much any one cell can hold the grid hostage.
//
// A cell is one adaptive.RunExperiment call. Temporal cells (a "p@k"
// churn schedule, ParseChurn) pass it an adaptive.Churn: the experiment
// applies a gen.ChurnDeltas edit every k observed rounds, invalidates
// only the RR sets it touches, and moves each realization's world onto
// the new graph with adaptive.Environment.Follow, so churn cells are as
// seed-deterministic as static ones.
package sweep
