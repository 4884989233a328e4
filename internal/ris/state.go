package ris

import (
	"encoding/binary"
	"fmt"

	"repro/internal/graph"
)

// CollectionState is the serializable snapshot of a Collection: the CSR
// arena, per-set offsets, roots, and the residual version the sets are
// valid for. The node-to-set index and the attached Coverage counts are
// deliberately absent — each is a pure function of the sets, so restore
// rebuilds them instead of trusting 2× the bytes on disk.
//
// A state captured by State may still hold dropped sets, in their slots
// with negative roots and entries. Len counts the live sets and PutLive
// writes only those, so an encoding does not depend on when the
// collection last compacted; a decoded state holds no dropped set, and
// RestoreState rejects a negative root in it.
type CollectionState struct {
	Arena   []graph.NodeID
	Offsets []int32
	Roots   []graph.NodeID
	Version int64

	// dropped and droppedEntries count the dropped sets in Roots and their
	// entries in Arena.
	dropped, droppedEntries int
}

// State captures the collection's snapshot without copying or compacting:
// like graph.Residual.AliveList, the returned slices alias the collection,
// must not be modified, and are only valid until the collection next
// changes. Encoders serialize them straight away.
func (c *Collection) State() CollectionState {
	return CollectionState{
		Arena:          c.arena,
		Offsets:        c.offsets,
		Roots:          c.roots,
		Version:        c.version,
		dropped:        c.deadSets,
		droppedEntries: c.deadEntries,
	}
}

// Len returns the number of live sets in the snapshot and their total
// number of nodes.
func (st CollectionState) Len() (sets, entries int) {
	return len(st.Roots) - st.dropped, len(st.Arena) - st.droppedEntries
}

// PutLive writes the snapshot's live sets, renumbered densely, as
// little-endian 32-bit words: their nodes into arena (4·entries bytes),
// the offsets of their nodes into offsets (4·(sets+1) bytes) and their
// roots into roots (4·sets bytes), sets and entries as Len counts them.
// Every value is written and the write position advances past the live
// ones only, so the branch on liveness, unpredictable at the boundaries of
// dropped sets, becomes arithmetic.
func (st CollectionState) PutLive(arena, offsets, roots []byte) {
	putLive(arena, st.Arena)
	putLive(roots, st.Roots)
	end, k := int32(0), 0
	for i, root := range st.Roots {
		if k < len(offsets) {
			binary.LittleEndian.PutUint32(offsets[k:], uint32(end))
		}
		live := ^(root >> 31) // all ones for a live set, zero for a dropped one
		end += (st.Offsets[i+1] - st.Offsets[i]) & live
		k += 4 & int(live)
	}
	binary.LittleEndian.PutUint32(offsets[len(offsets)-4:], uint32(end))
}

// putLive writes the non-negative values of vs into b as little-endian
// 32-bit words.
func putLive(b []byte, vs []graph.NodeID) {
	k := 0
	for _, v := range vs {
		if k < len(b) {
			binary.LittleEndian.PutUint32(b[k:], uint32(v))
		}
		k += 4 &^ int(v>>31)
	}
}

// RestoreState overwrites the collection with a captured snapshot's live
// sets, validating the CSR invariants first (a torn or hand-edited
// checkpoint must fail loudly, not corrupt later coverage queries).
// Existing arena capacity is reused; the restored collection holds no
// dropped sets, its indexes are rebuilt on use, and an attached Coverage
// tracker is zeroed, counting the restored sets at its next Update.
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
	dropped := 0
	for i, root := range st.Roots {
		if root == deadRoot && st.dropped > 0 {
			dropped++
			continue
		}
		if root < 0 || root >= n {
			return fmt.Errorf("ris: restore: root %d outside [0,%d)", root, n)
		}
		for _, u := range st.Arena[st.Offsets[i]:st.Offsets[i+1]] {
			if u < 0 || u >= n {
				return fmt.Errorf("ris: restore: arena node %d outside [0,%d)", u, n)
			}
		}
	}
	if dropped != st.dropped {
		return fmt.Errorf("ris: restore: %d dropped sets, state counts %d", dropped, st.dropped)
	}
	_, entries := st.Len()
	c.arena, c.offsets, c.roots = c.arena[:0], c.offsets[:1], c.roots[:0]
	c.deadSets, c.deadEntries, c.indexed, c.shared = 0, 0, 0, nil
	c.growArena(entries)
	for i, root := range st.Roots {
		if root >= 0 {
			c.AddSet(root, st.Arena[st.Offsets[i]:st.Offsets[i+1]])
		}
	}
	c.version = st.Version
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
