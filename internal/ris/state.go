package ris

import (
	"fmt"

	"repro/internal/graph"
)

// CollectionState is the serializable snapshot of a Collection: the CSR
// arena, per-set offsets, roots, and the residual version the sets are
// valid for. The inverted index and the attached Coverage counts are
// deliberately absent — each is a pure function of the sets, so restore
// rebuilds them instead of trusting 2× the bytes on disk.
type CollectionState struct {
	Arena   []graph.NodeID
	Offsets []int32
	Roots   []graph.NodeID
	Version int64
}

// State captures the collection's snapshot without copying: like
// graph.Residual.AliveList, the returned slices alias the collection, must
// not be modified, and are only valid until the collection next changes.
// Encoders serialize them straight away.
func (c *Collection) State() CollectionState {
	return CollectionState{
		Arena:   c.arena,
		Offsets: c.offsets,
		Roots:   c.roots,
		Version: c.version,
	}
}

// RestoreState overwrites the collection with a captured snapshot,
// validating the CSR invariants first (a torn or hand-edited checkpoint
// must fail loudly, not corrupt later coverage queries). Existing arena
// capacity is reused; the inverted index is invalidated and an attached
// Coverage tracker is zeroed, counting the restored sets at its next
// Update.
func (c *Collection) RestoreState(st CollectionState) error {
	if len(st.Offsets) != len(st.Roots)+1 {
		return fmt.Errorf("ris: restore: %d offsets for %d sets", len(st.Offsets), len(st.Roots))
	}
	if st.Offsets[0] != 0 {
		return fmt.Errorf("ris: restore: offsets start at %d, want 0", st.Offsets[0])
	}
	for i := 1; i < len(st.Offsets); i++ {
		if st.Offsets[i] < st.Offsets[i-1] {
			return fmt.Errorf("ris: restore: offsets decrease at set %d", i-1)
		}
	}
	if int(st.Offsets[len(st.Offsets)-1]) != len(st.Arena) {
		return fmt.Errorf("ris: restore: offsets end at %d, arena holds %d",
			st.Offsets[len(st.Offsets)-1], len(st.Arena))
	}
	n := graph.NodeID(c.n)
	for _, u := range st.Arena {
		if u < 0 || u >= n {
			return fmt.Errorf("ris: restore: arena node %d outside [0,%d)", u, n)
		}
	}
	for _, u := range st.Roots {
		if u < 0 || u >= n {
			return fmt.Errorf("ris: restore: root %d outside [0,%d)", u, n)
		}
	}
	c.arena = append(c.arena[:0], st.Arena...)
	c.offsets = append(c.offsets[:0], st.Offsets...)
	c.roots = append(c.roots[:0], st.Roots...)
	c.version = st.Version
	c.invValid = false
	if c.coverage != nil {
		c.coverage.reset()
	}
	return nil
}

// BatcherState is the serializable snapshot of a Batcher: the collection
// plus the Stats a resumed run must continue from so its final telemetry
// matches the uninterrupted run's. Sampler pools are borrowed per batch
// and stateless between batches (worker streams are reseeded from the
// caller's RNG on every call), so they need no snapshot, and neither does
// an attached base: a restored batcher holding sets never takes base
// sets again.
type BatcherState struct {
	Col    CollectionState
	HasCol bool
	Stats  Stats
}

// State captures the batcher's snapshot; the collection part aliases the
// live collection exactly as Collection.State does.
func (b *Batcher) State() BatcherState {
	st := BatcherState{Stats: b.stats}
	if b.col != nil {
		st.HasCol = true
		st.Col = b.col.State()
	}
	return st
}

// RestoreState overwrites the batcher with a captured snapshot. fullN is
// the node count of the graph the collection indexes (graph.Residual's
// FullN); it sizes the collection and coverage tracker when the batcher
// has never drawn. The reuse setting is not part of the state — callers
// call SetReuse before restoring, exactly as they would before a fresh
// run. A snapshot holding a collection detaches the base (SetBase); one
// without leaves it attached, so a campaign checkpointed before its first
// look still takes that look from the base. Stats.SamplingNS restarts at
// zero: it is wall-clock telemetry, meaningless across process
// boundaries.
func (b *Batcher) RestoreState(st BatcherState, fullN int) error {
	b.stats = st.Stats
	b.stats.SamplingNS = 0
	if !st.HasCol {
		if b.col != nil {
			b.col.Reset()
		}
		return nil
	}
	b.base = nil
	return b.ensureCol(fullN).RestoreState(st.Col)
}
