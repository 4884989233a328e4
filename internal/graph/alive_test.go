package graph

import (
	"testing"

	"repro/internal/rng"
)

// TestAliveListTracksRemovals: the incrementally maintained list must
// always hold exactly the alive nodes (any order), with N() as its length.
func TestAliveListTracksRemovals(t *testing.T) {
	g := wcGraph()
	r := NewResidual(g)
	check := func() {
		t.Helper()
		list := r.AliveList()
		if len(list) != r.N() {
			t.Fatalf("AliveList length %d, N() %d", len(list), r.N())
		}
		seen := make(map[NodeID]bool, len(list))
		for _, u := range list {
			if !r.Alive(u) {
				t.Fatalf("dead node %d in AliveList", u)
			}
			if seen[u] {
				t.Fatalf("duplicate node %d in AliveList", u)
			}
			seen[u] = true
		}
		sorted := r.AliveNodes()
		if len(sorted) != len(list) {
			t.Fatalf("AliveNodes %d entries, AliveList %d", len(sorted), len(list))
		}
		for i := 1; i < len(sorted); i++ {
			if sorted[i-1] >= sorted[i] {
				t.Fatal("AliveNodes not strictly increasing")
			}
		}
	}
	check()
	for _, u := range []NodeID{3, 0, 3, 4} { // includes a double-remove
		r.Remove(u)
		check()
	}
	cp := r.Clone()
	if got, want := cp.AliveList(), r.AliveList(); len(got) != len(want) {
		t.Fatalf("clone alive list length %d, want %d", len(got), len(want))
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatal("clone alive-list order diverged")
			}
		}
	}
}

// TestAliveListRandomizedAgainstMask cross-checks the swap-remove list
// against a straightforward boolean mask over many random removals.
func TestAliveListRandomizedAgainstMask(t *testing.T) {
	g := wcGraph()
	r := NewResidual(g)
	mask := make([]bool, g.N())
	rr := rng.New(13)
	for i := 0; i < 200; i++ {
		u := NodeID(rr.Intn(g.N()))
		wasAlive := !mask[u]
		if got := r.Remove(u); got != wasAlive {
			t.Fatalf("Remove(%d) = %v, want %v", u, got, wasAlive)
		}
		mask[u] = true
		alive := 0
		for _, dead := range mask {
			if !dead {
				alive++
			}
		}
		if r.N() != alive {
			t.Fatalf("N() = %d, mask says %d", r.N(), alive)
		}
		for v := 0; v < g.N(); v++ {
			if r.Alive(NodeID(v)) == mask[v] {
				t.Fatalf("Alive(%d) = %v, mask %v", v, r.Alive(NodeID(v)), !mask[v])
			}
		}
		if i%37 == 0 { // start over on a fresh view
			r = NewResidual(g)
			for v := range mask {
				mask[v] = false
			}
		}
	}
}

// TestResidualRemovalLog: the removal log (Removed, most recent first)
// replayed oldest first through Remove on a NewResidual of the same graph
// reproduces the view exactly — alive-list order, membership, and the
// version counter — across random removals with clones and fresh views in
// between. Checkpoints store the log instead
// of the alive list on the strength of this.
func TestResidualRemovalLog(t *testing.T) {
	const n = 60
	g := MustFromEdges(n, true, randomEdges(n, 300, 4))
	rr := rng.New(21)
	r := NewResidual(g)
	check := func(step int) {
		t.Helper()
		log := r.Removed()
		if len(log)+r.N() != n {
			t.Fatalf("step %d: log %d + alive %d != %d nodes", step, len(log), r.N(), n)
		}
		rep := NewResidual(g)
		for i := len(log) - 1; i >= 0; i-- {
			if !rep.Remove(log[i]) {
				t.Fatalf("step %d: log repeats node %d", step, log[i])
			}
		}
		if got, want := rep.Version(), r.Version(); got != want {
			t.Fatalf("step %d: replayed version %d, want %d", step, got, want)
		}
		got, want := rep.AliveList(), r.AliveList()
		if len(got) != len(want) {
			t.Fatalf("step %d: replay has %d alive, want %d", step, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("step %d: replayed AliveList[%d] = %d, want %d", step, i, got[i], want[i])
			}
		}
		for u := NodeID(0); u < n; u++ {
			if rep.Alive(u) != r.Alive(u) {
				t.Fatalf("step %d: Alive(%d) replayed %v, want %v", step, u, rep.Alive(u), r.Alive(u))
			}
		}
	}
	for step := 0; step < 400; step++ {
		switch k := rr.Intn(40); {
		case k == 0:
			r = NewResidual(g)
		case k < 4:
			// A clone carries the log: continuing on it must be
			// indistinguishable from continuing on the original.
			cp := r.Clone()
			r.Remove(NodeID(rr.Intn(n)))
			cp.Remove(NodeID(rr.Intn(n)))
			r = cp
		default:
			r.Remove(NodeID(rr.Intn(n)))
		}
		check(step)
	}
	if r.N() == n || r.N() == 0 {
		t.Fatalf("degenerate walk ended with %d of %d alive", r.N(), n)
	}
}

// randomEdges draws a reproducible multigraph-free edge list on n nodes.
func randomEdges(n, m int, seed uint64) []Edge {
	r := rng.New(seed)
	seen := make(map[[2]NodeID]bool, m)
	edges := make([]Edge, 0, m)
	for len(edges) < m {
		u := NodeID(r.Intn(n))
		v := NodeID(r.Intn(n))
		if u == v || seen[[2]NodeID{u, v}] {
			continue
		}
		seen[[2]NodeID{u, v}] = true
		p := 0.05 + 0.9*r.Float64()
		edges = append(edges, Edge{From: u, To: v, P: p})
	}
	return edges
}
