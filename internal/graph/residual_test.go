package graph

import (
	"slices"
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
}

// TestResidualRemovedSince: RemovedSince(v) is the head of the removal
// log holding the nodes removed after version v, most recent first; -1
// and 0 both name the whole log, the current version names nothing, and
// a version the residual never reached panics.
func TestResidualRemovedSince(t *testing.T) {
	g := MustFromEdges(7, true, fig1Edges())
	r := NewResidual(g)
	if got := r.RemovedSince(-1); len(got) != 0 {
		t.Fatalf("fresh residual RemovedSince(-1) = %v, want empty", got)
	}
	for _, u := range []NodeID{4, 1, 4, 6} { // includes a no-op repeat
		r.Remove(u)
	}
	v := r.Version()
	r.Remove(2)
	r.Remove(0)
	for _, tc := range []struct {
		since int64
		want  []NodeID
	}{
		{-1, []NodeID{0, 2, 6, 1, 4}},
		{0, []NodeID{0, 2, 6, 1, 4}},
		{v, []NodeID{0, 2}},
		{r.Version(), nil},
	} {
		got := r.RemovedSince(tc.since)
		if !slices.Equal(got, tc.want) {
			t.Fatalf("RemovedSince(%d) = %v, want %v", tc.since, got, tc.want)
		}
	}
	if int(r.Version()) != len(r.Removed()) {
		t.Fatalf("version %d, removal log holds %d", r.Version(), len(r.Removed()))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("RemovedSince past the current version did not panic")
		}
	}()
	r.RemovedSince(r.Version() + 1)
}

func TestResidualMCountsAliveEdges(t *testing.T) {
	// Paper's Fig. 1(c): removing A(v2) = {v2, v3, v4} leaves G2 with
	// edges v5->v6? no: edges among {v1,v5,v6,v7}: v5->v6(0.3), v6->v5(0.7),
	// v6->v7(0.6), v7->v1(0.2), v5->v1(0.7) = 5 edges.
	g := MustFromEdges(7, true, fig1Edges())
	r := NewResidual(g)
	for _, u := range []NodeID{1, 2, 3} {
		r.Remove(u)
	}
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
	for _, u := range []NodeID{1, 2, 3} {
		r.Remove(u)
	}
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
