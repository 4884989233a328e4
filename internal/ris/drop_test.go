package ris

import (
	"testing"

	"repro/internal/cascade"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// refPool is the reference model of a Batcher's collection: the sets in
// order, with the bookkeeping the collection keeps around them. Its
// filter and invalidate are the per-set scans the drop pass replaced —
// every node of every set tested against the residual's alive mask or a
// marked-node array — kept here as the oracle.
type refPool struct {
	sets      []*RRSet
	version   int64
	requested int
	counted   int // sets [0, counted) are folded into the Coverage counts
}

// drop keeps the sets keep accepts, in order, and gives back the counted
// prefix's share of the dropped ones.
func (m *refPool) drop(keep func(*RRSet) bool) {
	var kept []*RRSet
	counted := m.counted
	for i, rr := range m.sets {
		if keep(rr) {
			kept = append(kept, rr)
		} else if i < m.counted {
			counted--
		}
	}
	m.sets, m.counted, m.requested = kept, counted, len(kept)
}

// filter is the reference Filter: version-keyed, dropping every set that
// holds a node res reports dead.
func (m *refPool) filter(res *graph.Residual) {
	if m.version == res.Version() {
		return
	}
	m.drop(func(rr *RRSet) bool {
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
	m.drop(func(rr *RRSet) bool {
		for _, u := range rr.Nodes {
			if marked[u] {
				return false
			}
		}
		return true
	})
}

// checkPool asserts that b's collection equals the reference: the same
// sets, roots and order, Requested and Version, and Coverage counts equal
// to a recount of the counted prefix.
func checkPool(t *testing.T, step int, what string, b *Batcher, m *refPool) {
	t.Helper()
	c := b.Collection()
	if c.Len() != len(m.sets) {
		t.Fatalf("step %d (%s): %d sets, reference %d", step, what, c.Len(), len(m.sets))
	}
	for i, rr := range m.sets {
		if c.Root(i) != rr.Root {
			t.Fatalf("step %d (%s): set %d root %d, reference %d", step, what, i, c.Root(i), rr.Root)
		}
		nodes := c.SetNodes(i)
		if len(nodes) != len(rr.Nodes) {
			t.Fatalf("step %d (%s): set %d holds %d nodes, reference %d", step, what, i, len(nodes), len(rr.Nodes))
		}
		for j := range nodes {
			if nodes[j] != rr.Nodes[j] {
				t.Fatalf("step %d (%s): set %d node %d is %d, reference %d", step, what, i, j, nodes[j], rr.Nodes[j])
			}
		}
	}
	if c.Requested() != m.requested || c.Version() != m.version {
		t.Fatalf("step %d (%s): requested %d version %d, reference %d and %d",
			step, what, c.Requested(), c.Version(), m.requested, m.version)
	}
	if b.cov.seen != m.counted {
		t.Fatalf("step %d (%s): coverage has counted %d sets, reference %d", step, what, b.cov.seen, m.counted)
	}
	want := make([]int32, c.n)
	for _, rr := range m.sets[:m.counted] {
		for _, u := range rr.Nodes {
			want[u]++
		}
	}
	for u, w := range want {
		got := int32(0)
		if b.cov.counts != nil {
			got = b.cov.counts[u]
		}
		if got != w {
			t.Fatalf("step %d (%s): coverage count of node %d is %d, recount %d", step, what, u, got, w)
		}
	}
	for _, word := range c.dropBits {
		if word != 0 {
			t.Fatalf("step %d (%s): drop bitset not cleared", step, what)
		}
	}
}

// TestDropMatchesReferenceScan drives random histories through a Batcher
// — node removals with Sync and GrowTo top-ups, residual clones, topology
// deltas re-homed with SetGraph and invalidated, Count calls that fold
// the coverage at random points, and a state capture restored onto a
// fresh batcher and a residual replayed from the removal log (the resume
// path) — and checks the collection after every step against the
// reference scans of refPool.
func TestDropMatchesReferenceScan(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		r := rng.New(seed)
		g := randomGraph(t)
		n := g.N()
		res := graph.NewResidual(g)
		b := NewBatcher(cascade.IC)
		parent := rng.New(seed + 100)
		m := &refPool{version: -1}
		grow := func(step int) {
			b.Sync(res)
			m.filter(res)
			checkPool(t, step, "sync", b, m)
			before := b.Len()
			target := before + 1 + r.Intn(400)
			if _, err := b.GrowTo(res, parent, target, 1+r.Intn(2)); err != nil {
				t.Fatal(err)
			}
			c := b.Collection()
			for i := before; i < c.Len(); i++ {
				m.sets = append(m.sets, &RRSet{Root: c.Root(i), Nodes: append([]graph.NodeID(nil), c.SetNodes(i)...)})
			}
			m.requested += target - before
			m.version = res.Version()
			checkPool(t, step, "grow", b, m)
		}
		grow(-1)
		for step := 0; step < 120; step++ {
			switch k := r.Intn(20); {
			case k < 8: // a round: a few nodes die, then Sync and top up
				for range 1 + r.Intn(3) {
					if res.N() > n/2 {
						res.Remove(graph.NodeID(r.Intn(n)))
					}
				}
				grow(step)
			case k < 10: // removals caught by a bare Sync
				res.Remove(graph.NodeID(r.Intn(n)))
				b.Sync(res)
				m.filter(res)
				checkPool(t, step, "filter", b, m)
			case k < 12: // fold the coverage through Count
				_ = b.Count(graph.NodeID(r.Intn(n)))
				m.counted = len(m.sets)
				checkPool(t, step, "count", b, m)
			case k < 13: // continue on a clone of the residual
				res = res.Clone()
				checkPool(t, step, "clone", b, m)
			case k < 16: // a topology delta, re-homed and invalidated
				ng, dres, err := res.Graph().ApplyDelta(gen.ChurnDeltas(res.Graph(), 0.01, rng.New(r.Uint64())))
				if err != nil {
					t.Fatal(err)
				}
				res.SetGraph(ng)
				b.Invalidate(dres.Touched)
				m.invalidate(dres.Touched, n)
				checkPool(t, step, "invalidate", b, m)
			case k < 17: // checkpoint and resume mid-history
				st := b.State()
				nb := NewBatcher(cascade.IC)
				if err := nb.RestoreState(st, n); err != nil {
					t.Fatal(err)
				}
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
			default: // a top-up on the unchanged residual
				grow(step)
			}
		}
		if b.Drawn() == 0 || res.Version() == 0 {
			t.Fatalf("seed %d: degenerate history (drawn %d, version %d)", seed, b.Drawn(), res.Version())
		}
	}
}
