package ris

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/cascade"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// refPool is the reference model of a Batcher's collection: the sets in
// order, with the bookkeeping the batcher keeps around them. Its
// filter and invalidate are the per-set scans the drop pass replaced —
// every node of every set tested against the residual's alive mask or a
// marked-node array — kept here as the oracle.
type refPool struct {
	sets      []*rrSet
	version   int64
	requested int64 // sets asked of the pool, as Stats.RRRequested counts them
	counted   int   // sets [0, counted) are folded into the Coverage counts
}

// drop keeps the sets keep accepts, in order, and gives back the counted
// prefix's share of the dropped ones.
func (m *refPool) drop(keep func(*rrSet) bool) {
	var kept []*rrSet
	counted := m.counted
	for i, rr := range m.sets {
		if keep(rr) {
			kept = append(kept, rr)
		} else if i < m.counted {
			counted--
		}
	}
	m.sets, m.counted = kept, counted
}

// filter is the reference Filter: version-keyed, dropping every set that
// holds a node res reports dead.
func (m *refPool) filter(res *graph.Residual) {
	if m.version == res.Version() {
		return
	}
	m.drop(func(rr *rrSet) bool {
		for _, u := range rr.Nodes {
			if !res.Alive(u) {
				return false
			}
		}
		return true
	})
	m.version = res.Version()
}

// invalidate is the reference InvalidateTouching.
func (m *refPool) invalidate(touched []graph.NodeID, n int) {
	if len(touched) == 0 || len(m.sets) == 0 {
		return
	}
	marked := make([]bool, n)
	for _, u := range touched {
		marked[u] = true
	}
	m.drop(func(rr *rrSet) bool {
		for _, u := range rr.Nodes {
			if marked[u] {
				return false
			}
		}
		return true
	})
}

// checkPool asserts that b's collection equals the reference: the same
// live sets, roots and order, requested count and Version, Coverage
// counts of every target equal to a recount of the counted prefix, and
// what Count would answer for every target — the counts after folding the
// rest, taken on a copy of the tracker so the history is not disturbed —
// equal to a recount over all the live sets. It also checks the
// tombstone bookkeeping: the dead slots are the ones counted as dead, no
// dead slot is counted as live or folded into Coverage, dropped entries
// stay below the live ones, and every live set the drop index covers is
// reachable from the bucket chain of each of its nodes.
func checkPool(t *testing.T, step int, what string, b *Batcher, m *refPool) {
	t.Helper()
	c := b.Collection()
	sameRRSets(t, fmt.Sprintf("step %d (%s)", step, what), snapshotSets(c), m.sets)
	if c.Len() != len(m.sets) {
		t.Fatalf("step %d (%s): Len %d, reference %d", step, what, c.Len(), len(m.sets))
	}
	if b.Stats().RRRequested != m.requested || c.Version() != m.version {
		t.Fatalf("step %d (%s): requested %d version %d, reference %d and %d",
			step, what, b.Stats().RRRequested, c.Version(), m.requested, m.version)
	}
	deadSets, deadEntries, counted := 0, 0, 0
	for s, root := range c.roots {
		switch {
		case root == deadRoot:
			deadSets++
			deadEntries += len(c.nodesAt(s))
		case s < b.cov.seen:
			counted++
		}
	}
	if deadSets != c.deadSets || deadEntries != c.deadEntries {
		t.Fatalf("step %d (%s): %d dead sets with %d entries, collection counts %d and %d",
			step, what, deadSets, deadEntries, c.deadSets, c.deadEntries)
	}
	if deadSets > 0 && (2*deadEntries >= len(c.arena) || 2*deadSets >= len(c.roots)) {
		t.Fatalf("step %d (%s): %d of %d entries and %d of %d sets dead without a compaction",
			step, what, deadEntries, len(c.arena), deadSets, len(c.roots))
	}
	if counted != m.counted {
		t.Fatalf("step %d (%s): coverage has counted %d live sets, reference %d", step, what, counted, m.counted)
	}
	if b.cov.t != nil {
		counted, all := make([]int, c.n), make([]int, c.n)
		for i, rr := range m.sets {
			for _, u := range rr.Nodes {
				all[u]++
				if i < m.counted {
					counted[u]++
				}
			}
		}
		probe := Coverage{c: c, t: b.cov.t, counts: slices.Clone(b.cov.counts), seen: b.cov.seen}
		probe.Update()
		for u := range graph.NodeID(c.n) {
			k := b.cov.t.counter[u]
			if k < spareCounters {
				continue
			}
			if got := int(b.cov.counts[k]); got != counted[u] {
				t.Fatalf("step %d (%s): coverage count of target %d is %d, recount %d", step, what, u, got, counted[u])
			}
			if got := probe.Count(u); got != all[u] {
				t.Fatalf("step %d (%s): Count(%d) would be %d, recount over the live sets %d", step, what, u, got, all[u])
			}
		}
	}
	if c.indexed == 0 {
		return
	}
	for k, s := range c.setAt {
		if p := int32(k * setAtStride); slotOf(c, p) != int(s) {
			t.Fatalf("step %d (%s): setAt[%d] is %d, entry %d is in set %d", step, what, k, s, p, slotOf(c, p))
		}
	}
	holders := make([][]int32, c.n)
	for s := 0; s < c.indexed; s++ {
		for _, u := range c.nodesAt(s) {
			if c.roots[s] != deadRoot {
				holders[u] = append(holders[u], int32(s))
			} else if u >= 0 {
				t.Fatalf("step %d (%s): dropped set %d holds a live entry of node %d", step, what, s, u)
			}
		}
	}
	mask := int32(len(c.head) - 1)
	if len(c.head)&int(mask) != 0 || len(c.head) > headBuckets(2*c.n, c.n) {
		t.Fatalf("step %d (%s): %d head buckets for %d nodes", step, what, len(c.head), c.n)
	}
	onChain := make([]int, len(c.roots))
	for u, slots := range holders {
		for q := c.head[int32(u)&mask]; q > 0; q = c.post[q-1] {
			p := q - 1
			s := slotOf(c, p)
			v := c.arena[p]
			if v < 0 {
				v = ^v
				if c.roots[s] != deadRoot {
					t.Fatalf("step %d (%s): entry %d of live set %d is marked dead", step, what, p, s)
				}
			}
			if v&mask != int32(u)&mask {
				t.Fatalf("step %d (%s): node %d's bucket chain reaches entry %d of node %d", step, what, u, p, v)
			}
			if int(v) == u {
				onChain[s] = u + 1
			}
		}
		for _, s := range slots {
			if onChain[s] != u+1 {
				t.Fatalf("step %d (%s): live set in slot %d holds node %d but is not on its chain", step, what, s, u)
			}
		}
	}
}

// slotOf returns the slot of the set holding arena entry p.
func slotOf(c *Collection, p int32) int {
	return sort.Search(len(c.roots), func(s int) bool { return c.offsets[s+1] > p })
}

// TestDropMatchesReferenceScan drives random histories through a Batcher
// counting a random target set — node removals with Sync and GrowTo
// top-ups, residual clones, topology deltas re-homed with SetGraph and
// invalidated, Count calls that fold the coverage at random points,
// drop-only stretches that run until the dropped entries force a
// compaction, Reset, and a resume: the live sets (taken while dropped
// sets are still in place) copied onto a fresh batcher through AddSet and
// a residual replayed from the removal log — and checks the collection and
// the target counts after every step against the reference scans of
// refPool. Odd seeds start with a few adoptions from a shared first look
// (Base) to chunk-aligned and unaligned ends, with and without a Count
// between them and with the tracker behind; the base counts the batcher's
// table except at seed 5, whose base counts an equal table of its own, so
// every copy is scanned. The first drop detaches the base, and the adopted sets are
// compacted before drawing.
func TestDropMatchesReferenceScan(t *testing.T) {
	compactions, sparseResumes, resets, baseCounted := 0, 0, 0, 0
	for seed := uint64(1); seed <= 6; seed++ {
		r := rng.New(seed)
		g := randomGraph(t)
		n := g.N()
		var targets []graph.NodeID
		for u := range graph.NodeID(n) {
			if r.Intn(6) == 0 {
				targets = append(targets, u)
			}
		}
		ti := NewTargetIndex(n, targets)
		res := graph.NewResidual(g)
		b := NewBatcher(cascade.IC)
		b.SetTargets(ti)
		if seed%2 == 1 {
			baseTargets := ti
			if seed == 5 {
				baseTargets = NewTargetIndex(n, targets) // equal, but not the batcher's
			}
			b.SetBase(NewBase(g, cascade.IC, seed, baseTargets))
		}
		parent := rng.New(seed + 100)
		m := &refPool{version: -1}
		drawn := int64(0)
		growTo := func(step, target int) {
			b.Sync(res)
			m.filter(res)
			checkPool(t, step, "sync", b, m)
			before := b.Len()
			adopting := b.base != nil && b.base.fits(res)
			// The tracker takes adopted sets' counts from the base when it
			// is current and counts the base's targets.
			fromBase := adopting && b.base.targets == ti && m.counted == before
			if _, err := b.GrowTo(res, parent, target, 1+r.Intn(2)); err != nil {
				t.Fatal(err)
			}
			m.sets = append(m.sets, snapshotSets(b.Collection())[before:]...)
			if !adopting {
				m.requested += int64(target - before)
			} else if b.Stats().RRRequested != 0 {
				t.Fatalf("step %d: adopting from the base drew %d sets", step, b.Stats().RRRequested)
			}
			if fromBase {
				m.counted = len(m.sets)
				baseCounted++
			}
			m.version = res.Version()
			checkPool(t, step, "grow", b, m)
		}
		grow := func(step int) { growTo(step, b.Len()+1+r.Intn(400)) }
		count := func(step int) {
			_ = b.Count(targets[r.Intn(len(targets))])
			m.counted = len(m.sets)
			checkPool(t, step, "count", b, m)
		}
		invalidate := func(step int, touched []graph.NodeID) {
			b.Invalidate(touched)
			m.invalidate(touched, n)
			checkPool(t, step, "invalidate", b, m)
		}
		// dropUntilCompaction drops through removals (or, with touch or
		// once half the nodes are gone, topology deltas) and nothing else
		// until a drop compacts the arena.
		dropUntilCompaction := func(step int, touch bool) {
			for compacted := false; !compacted; {
				entries := len(b.Collection().arena)
				if touch || res.N() <= n/2 {
					invalidate(step, []graph.NodeID{graph.NodeID(r.Intn(n))})
				} else {
					res.Remove(graph.NodeID(r.Intn(n)))
					b.Sync(res)
					m.filter(res)
					checkPool(t, step, "drop-only filter", b, m)
				}
				compacted = len(b.Collection().arena) < entries
			}
			compactions++
		}
		if seed%2 == 1 {
			// Adoptions to a chunk boundary or past one, folded or not,
			// and with the counts zeroed by re-attaching the table, after
			// which the tracker is behind and scans the copies instead.
			for range 6 {
				if b.Len() > 0 && r.Intn(3) == 0 {
					b.SetTargets(ti)
					m.counted = 0
					checkPool(t, -1, "retarget", b, m)
				}
				if r.Intn(2) == 0 {
					growTo(-1, (b.Len()/interruptStride+1+r.Intn(4))*interruptStride)
				} else {
					growTo(-1, b.Len()+1+r.Intn(300))
				}
				if r.Intn(2) == 0 {
					count(-1)
				}
			}
		} else {
			grow(-1)
		}
		if seed%2 == 1 {
			if b.Stats().RRReused == 0 || b.Stats().RRDrawn != 0 {
				t.Fatalf("seed %d: first look not adopted from the base: %+v", seed, b.Stats())
			}
			// Compact the adopted sets below their count before anything
			// is drawn, then drop again: the index must rebuild without
			// the base's.
			dropUntilCompaction(-1, true)
			invalidate(-1, []graph.NodeID{graph.NodeID(r.Intn(n))})
		}
		for step := 0; step < 120; step++ {
			switch k := r.Intn(20); {
			case k < 7: // a round: a few nodes die, then Sync and top up
				for range 1 + r.Intn(3) {
					if res.N() > n/2 {
						res.Remove(graph.NodeID(r.Intn(n)))
					}
				}
				grow(step)
			case k < 9: // removals caught by a bare Sync
				res.Remove(graph.NodeID(r.Intn(n)))
				b.Sync(res)
				m.filter(res)
				checkPool(t, step, "filter", b, m)
			case k < 11: // fold the coverage through Count
				count(step)
			case k < 12: // continue on a clone of the residual
				res = res.Clone()
				checkPool(t, step, "clone", b, m)
			case k < 14: // a topology delta, re-homed and invalidated
				ng, dres, err := res.Graph().ApplyDelta(gen.ChurnDeltas(res.Graph(), 0.01, rng.New(r.Uint64())))
				if err != nil {
					t.Fatal(err)
				}
				res.SetGraph(ng)
				invalidate(step, dres.Touched)
			case k < 16: // drops alone until one compacts the arena
				if b.Len() == 0 {
					grow(step)
				}
				dropUntilCompaction(step, k == 14)
			case k < 18: // resume mid-history on a copy of the live sets
				if b.col.deadSets > 0 {
					sparseResumes++
				}
				nb := NewBatcher(cascade.IC)
				nb.SetTargets(ti)
				copyLive(nb.ensureCol(n), b.col)
				nb.stats = b.stats
				rep := graph.NewResidual(res.Graph())
				log := res.Removed()
				for i := len(log) - 1; i >= 0; i-- {
					rep.Remove(log[i])
				}
				if rep.Version() != res.Version() {
					t.Fatalf("step %d: replayed residual at version %d, want %d", step, rep.Version(), res.Version())
				}
				b, res = nb, rep
				m.counted = 0
				checkPool(t, step, "resume", b, m)
			case k < 19: // Reset after drops: the next history starts clean
				drawn += b.Stats().RRDrawn
				b.Reset()
				*m = refPool{version: -1}
				resets++
				checkPool(t, step, "reset", b, m)
			default: // a top-up on the unchanged residual
				grow(step)
			}
		}
		if drawn += b.Stats().RRDrawn; drawn == 0 || res.Version() == 0 {
			t.Fatalf("seed %d: degenerate history (drawn %d, version %d)", seed, drawn, res.Version())
		}
	}
	t.Logf("%d drop-only compactions, %d resumes with dropped sets, %d resets, %d adoptions counted from the base",
		compactions, sparseResumes, resets, baseCounted)
	if compactions == 0 || sparseResumes == 0 || resets == 0 || baseCounted < 2 {
		t.Fatalf("histories missed a case: %d drop-only compactions, %d resumes with dropped sets, %d resets, %d adoptions counted from the base",
			compactions, sparseResumes, resets, baseCounted)
	}
}
