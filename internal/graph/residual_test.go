package graph

import (
	"testing"
	"testing/quick"
)

func TestResidualBasics(t *testing.T) {
	g := MustFromEdges(7, true, fig1Edges())
	r := NewResidual(g)
	if r.N() != 7 {
		t.Fatalf("fresh residual N = %d, want 7", r.N())
	}
	if !r.Alive(3) {
		t.Fatal("node 3 should start alive")
	}
	if !r.Remove(3) {
		t.Fatal("first Remove returned false")
	}
	if r.Remove(3) {
		t.Fatal("second Remove returned true")
	}
	if r.N() != 6 || r.Alive(3) {
		t.Fatalf("after removal: N=%d alive(3)=%v", r.N(), r.Alive(3))
	}
}

func TestResidualVersionBumps(t *testing.T) {
	g := MustFromEdges(7, true, fig1Edges())
	r := NewResidual(g)
	v0 := r.Version()
	r.Remove(1)
	if r.Version() == v0 {
		t.Fatal("version did not change after Remove")
	}
	v1 := r.Version()
	r.Remove(1) // no-op
	if r.Version() != v1 {
		t.Fatal("version changed on no-op Remove")
	}
	r.Reset()
	if r.Version() == v1 {
		t.Fatal("version did not change after Reset")
	}
}

func TestResidualMCountsAliveEdges(t *testing.T) {
	// Paper's Fig. 1(c): removing A(v2) = {v2, v3, v4} leaves G2 with
	// edges v5->v6? no: edges among {v1,v5,v6,v7}: v5->v6(0.3), v6->v5(0.7),
	// v6->v7(0.6), v7->v1(0.2), v5->v1(0.7) = 5 edges.
	g := MustFromEdges(7, true, fig1Edges())
	r := NewResidual(g)
	r.RemoveAll([]NodeID{1, 2, 3})
	if r.N() != 4 {
		t.Fatalf("G2 has %d nodes, want 4", r.N())
	}
	if m := r.M(); m != 5 {
		t.Fatalf("G2 has %d alive edges, want 5", m)
	}
}

func TestResidualAliveNodes(t *testing.T) {
	g := MustFromEdges(7, true, fig1Edges())
	r := NewResidual(g)
	r.RemoveAll([]NodeID{1, 2, 3})
	got := r.AliveNodes()
	want := []NodeID{0, 4, 5, 6}
	if len(got) != len(want) {
		t.Fatalf("AliveNodes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AliveNodes = %v, want %v", got, want)
		}
	}
}

func TestResidualCloneIsIndependent(t *testing.T) {
	g := MustFromEdges(7, true, fig1Edges())
	r := NewResidual(g)
	r.Remove(0)
	c := r.Clone()
	c.Remove(1)
	if !r.Alive(1) {
		t.Fatal("mutating clone affected original")
	}
	if c.Alive(0) {
		t.Fatal("clone did not inherit removal")
	}
	if c.N() != 5 || r.N() != 6 {
		t.Fatalf("counts: clone=%d orig=%d", c.N(), r.N())
	}
}

func TestResidualReset(t *testing.T) {
	g := MustFromEdges(7, true, fig1Edges())
	r := NewResidual(g)
	r.RemoveAll([]NodeID{0, 1, 2, 3, 4, 5, 6})
	if r.N() != 0 {
		t.Fatalf("N = %d after removing all", r.N())
	}
	r.Reset()
	if r.N() != 7 {
		t.Fatalf("N = %d after Reset, want 7", r.N())
	}
	for u := NodeID(0); u < 7; u++ {
		if !r.Alive(u) {
			t.Fatalf("node %d dead after Reset", u)
		}
	}
}

// Property: for any removal sequence, alive count equals N minus distinct
// removed nodes, and AliveNodes agrees with Alive.
func TestResidualCountProperty(t *testing.T) {
	g := MustFromEdges(7, true, fig1Edges())
	f := func(seq []uint8) bool {
		r := NewResidual(g)
		distinct := make(map[NodeID]bool)
		for _, s := range seq {
			u := NodeID(int(s) % 7)
			r.Remove(u)
			distinct[u] = true
		}
		if r.N() != 7-len(distinct) {
			return false
		}
		alive := r.AliveNodes()
		if len(alive) != r.N() {
			return false
		}
		for _, u := range alive {
			if distinct[u] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
