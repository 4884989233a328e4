package graph

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// assertGraphsEquivalent checks that got (an ApplyDelta product) is
// structurally identical, per node, to want (a Builder.Build from-scratch
// rebuild on the edited edge list) — ApplyDelta's documented contract.
// Arena layouts may differ between the two paths: adjacency runs sit at
// other arena positions and table arenas hold other layouts, so each
// node's runs, probabilities and table are compared by content, and its
// InMeta by the fields samplers read besides the arena position (Deg,
// Thr0, Thr1).
func assertGraphsEquivalent(t *testing.T, got, want *Graph) {
	t.Helper()
	if err := got.Validate(); err != nil {
		t.Fatalf("delta graph invalid: %v", err)
	}
	if err := want.Validate(); err != nil {
		t.Fatalf("rebuilt graph invalid: %v", err)
	}
	if got.N() != want.N() || got.M() != want.M() || got.Directed() != want.Directed() {
		t.Fatalf("shape mismatch: got n=%d m=%d dir=%v, want n=%d m=%d dir=%v",
			got.N(), got.M(), got.Directed(), want.N(), want.M(), want.Directed())
	}
	if got.InUniform() != want.InUniform() {
		t.Fatalf("storage mode diverges: delta uniform=%v, rebuild uniform=%v",
			got.InUniform(), want.InUniform())
	}
	if got.MaxInDegree() != want.MaxInDegree() {
		t.Fatalf("max in-degree %d vs %d", got.MaxInDegree(), want.MaxInDegree())
	}
	sameRun := func(dir string, v NodeID, ga, wa []NodeID, gp, wp []float64) {
		t.Helper()
		if len(ga) != len(wa) {
			t.Fatalf("node %d: %s-degree %d vs %d", v, dir, len(ga), len(wa))
		}
		for i := range ga {
			if ga[i] != wa[i] || gp[i] != wp[i] {
				t.Fatalf("node %d: %s edge %d: (%d, %v) vs (%d, %v)", v, dir, i, ga[i], gp[i], wa[i], wp[i])
			}
		}
	}
	for v := NodeID(0); v < got.n; v++ {
		ga, gp := got.OutNeighbors(v)
		wa, wp := want.OutNeighbors(v)
		sameRun("out", v, ga, wa, gp, wp)
		ga, gp = got.InNeighbors(v)
		wa, wp = want.InNeighbors(v)
		sameRun("in", v, ga, wa, gp, wp)
		gm, wm := got.inMeta[v], want.inMeta[v]
		if gm.Deg != wm.Deg || gm.Thr0 != wm.Thr0 || gm.Thr1 != wm.Thr1 {
			t.Fatalf("node %d: InMeta %+v vs %+v", v, gm, wm)
		}
	}
	if !got.InUniform() {
		return
	}
	for v := NodeID(0); v < got.n; v++ {
		if got.inProb[v] != want.inProb[v] {
			t.Fatalf("node %d: inProb %v vs %v", v, got.inProb[v], want.inProb[v])
		}
		gt, wt := got.InCountThresholds(v), want.InCountThresholds(v)
		if len(gt) != len(wt) {
			t.Fatalf("node %d: table length %d vs %d", v, len(gt), len(wt))
		}
		for k := range gt {
			if gt[k] != wt[k] {
				t.Fatalf("node %d: table entry %d: %08x vs %08x", v, k, gt[k], wt[k])
			}
		}
	}
}

const (
	weightWC = iota
	weightUniformP
	weightMixed
)

// randomDeltaEdges draws a simple (parallel-free) directed edge set and
// weights it. The property tests stay parallel-free because randomDelta
// deletes a specific edge of the list, while a delete in ApplyDelta
// removes the first matching (From, To) entry.
func randomDeltaEdges(r *rng.RNG, n, m, weighting int) []Edge {
	seen := make(map[[2]NodeID]bool, m)
	edges := make([]Edge, 0, m)
	for len(edges) < m {
		u, v := NodeID(r.Intn(n)), NodeID(r.Intn(n))
		if u == v || seen[[2]NodeID{u, v}] {
			continue
		}
		seen[[2]NodeID{u, v}] = true
		edges = append(edges, Edge{From: u, To: v, P: 1})
	}
	switch weighting {
	case weightWC:
		indeg := make([]int, n)
		for _, e := range edges {
			indeg[e.To]++
		}
		for i := range edges {
			edges[i].P = 1 / float64(indeg[edges[i].To])
		}
	case weightUniformP:
		for i := range edges {
			edges[i].P = 0.1
		}
	default:
		vals := [3]float64{0.1, 0.01, 0.001}
		for i := range edges {
			edges[i].P = vals[r.Intn(3)]
		}
	}
	return edges
}

// TestApplyDeltaFlattenMatchesBuild is the flatten-equals-rebuild property:
// for random delta sequences (chained, so deltas compose on delta output),
// ApplyDelta must be per-node structurally identical to Builder.Build on
// the edited edge list — CSR runs, probabilities, compressed per-node
// tables, and sampler metadata alike.
func TestApplyDeltaFlattenMatchesBuild(t *testing.T) {
	const n = 60
	for _, weighting := range []int{weightWC, weightUniformP, weightMixed} {
		for seed := uint64(1); seed <= 4; seed++ {
			r := rng.New(seed + uint64(weighting)*100)
			edges := randomDeltaEdges(r, n, 240, weighting)
			cur := MustFromEdges(n, true, edges)
			for round := 0; round < 8; round++ {
				inserts, deletes, edited := randomDelta(r, cur, edges, n)
				next, dres, err := cur.ApplyDelta(inserts, deletes)
				if err != nil {
					t.Fatalf("w=%d seed=%d round=%d: ApplyDelta: %v", weighting, seed, round, err)
				}
				if next.Epoch() != cur.Epoch()+1 {
					t.Fatalf("epoch %d after delta on epoch %d", next.Epoch(), cur.Epoch())
				}
				if dres.Inserted != len(inserts) || dres.Deleted != len(deletes) {
					t.Fatalf("counts %d/%d, want %d/%d", dres.Inserted, dres.Deleted, len(inserts), len(deletes))
				}
				assertTouched(t, dres, inserts, deletes)
				want := MustFromEdges(n, true, edited)
				assertGraphsEquivalent(t, next, want)
				cur, edges = next, edited
			}
		}
	}
}

// randomDelta picks deletes from the live edge list and inserts of edges
// not currently present, biased toward the target's existing shared
// in-probability (exercising the compressed fast path) but sometimes
// diverging (exercising the per-edge fallback and re-compression).
func randomDelta(r *rng.RNG, g *Graph, edges []Edge, n int) (inserts, deletes, edited []Edge) {
	present := make(map[[2]NodeID]bool, len(edges))
	for _, e := range edges {
		present[[2]NodeID{e.From, e.To}] = true
	}
	nDel := r.Intn(6)
	if nDel > len(edges) {
		nDel = len(edges)
	}
	delIdx := make(map[int]bool, nDel)
	for len(delIdx) < nDel {
		delIdx[r.Intn(len(edges))] = true
	}
	for i := range delIdx {
		e := edges[i]
		e.P = 0 // deletes match by (From, To); the probability must be ignored
		deletes = append(deletes, e)
		delete(present, [2]NodeID{e.From, e.To})
	}
	for tries := 0; len(inserts) < 5 && tries < 100; tries++ {
		u, v := NodeID(r.Intn(n)), NodeID(r.Intn(n))
		if u == v || present[[2]NodeID{u, v}] {
			continue
		}
		p := 0.25
		if _, q, ok := g.InNeighborsUniform(v); ok && q > 0 && r.Intn(4) > 0 {
			p = q
		} else if r.Intn(2) == 0 {
			p = 0.5
		}
		present[[2]NodeID{u, v}] = true
		inserts = append(inserts, Edge{From: u, To: v, P: p})
	}
	for i, e := range edges {
		if !delIdx[i] {
			edited = append(edited, e)
		}
	}
	edited = append(edited, inserts...)
	return inserts, deletes, edited
}

func assertTouched(t *testing.T, dres *DeltaResult, inserts, deletes []Edge) {
	t.Helper()
	want := make(map[NodeID]bool)
	for _, e := range inserts {
		want[e.To] = true
	}
	for _, e := range deletes {
		want[e.To] = true
	}
	if len(dres.Touched) != len(want) {
		t.Fatalf("touched %v, want the %d distinct targets", dres.Touched, len(want))
	}
	for i, v := range dres.Touched {
		if !want[v] {
			t.Fatalf("touched[%d]=%d is not a delta target", i, v)
		}
		if i > 0 && dres.Touched[i-1] >= v {
			t.Fatalf("touched not sorted/unique at %d: %v", i, dres.Touched)
		}
	}
}

// TestApplyDeltaStorageTransitions pins the two storage-mode crossings:
// a mixed-probability insert demotes compressed storage to per-edge, and
// deleting the odd edges out re-compresses — both matching Build.
func TestApplyDeltaStorageTransitions(t *testing.T) {
	base := []Edge{{0, 1, 0.5}, {2, 1, 0.5}, {1, 2, 0.5}, {3, 2, 0.5}}
	g := MustFromEdges(4, true, base)
	if !g.InUniform() {
		t.Fatal("base graph should compress")
	}

	// Insert an edge whose probability clashes with node 1's shared one.
	odd := Edge{From: 3, To: 1, P: 0.9}
	mixed, _, err := g.ApplyDelta([]Edge{odd}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mixed.InUniform() {
		t.Fatal("mixed insert should demote to per-edge storage")
	}
	assertGraphsEquivalent(t, mixed, MustFromEdges(4, true, append(append([]Edge{}, base...), odd)))

	// Deleting it again must re-compress, exactly as a rebuild would.
	back, _, err := mixed.ApplyDelta(nil, []Edge{odd})
	if err != nil {
		t.Fatal(err)
	}
	if !back.InUniform() {
		t.Fatal("deleting the odd edge should restore compressed storage")
	}
	assertGraphsEquivalent(t, back, MustFromEdges(4, true, base))
	if back.Epoch() != 2 {
		t.Fatalf("epoch %d after two deltas", back.Epoch())
	}
}

// TestApplyDeltaRejectsHostileInput pins the validation surface.
func TestApplyDeltaRejectsHostileInput(t *testing.T) {
	g := MustFromEdges(4, true, []Edge{{0, 1, 0.5}, {1, 2, 0.5}})
	cases := []struct {
		name          string
		ins, del      []Edge
		wantSubstring string
	}{
		{"insert out of range", []Edge{{0, 9, 0.5}}, nil, "out of range"},
		{"insert negative node", []Edge{{-1, 1, 0.5}}, nil, "out of range"},
		{"insert self-loop", []Edge{{2, 2, 0.5}}, nil, "self-loop"},
		{"insert p=0", []Edge{{0, 2, 0}}, nil, "outside (0,1]"},
		{"insert p>1", []Edge{{0, 2, 1.5}}, nil, "outside (0,1]"},
		{"insert NaN", []Edge{{0, 2, math.NaN()}}, nil, "outside (0,1]"},
		{"delete absent edge", nil, []Edge{{2, 0, 0.5}}, "exceeds 0 existing"},
		{"delete out of range", nil, []Edge{{0, 99, 0.5}}, "out of range"},
		{"delete same edge twice", nil, []Edge{{0, 1, 0.5}, {0, 1, 0.5}}, "exceeds 1 existing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ng, _, err := g.ApplyDelta(tc.ins, tc.del)
			if err == nil {
				t.Fatalf("want error containing %q, got graph m=%d", tc.wantSubstring, ng.M())
			}
		})
	}
	// The base graph must be untouched by failed (and successful) deltas.
	if err := g.Validate(); err != nil {
		t.Fatalf("base graph corrupted: %v", err)
	}
	if g.M() != 2 || g.Epoch() != 0 {
		t.Fatalf("base graph mutated: m=%d epoch=%d", g.M(), g.Epoch())
	}
}

// TestApplyDeltaParallelEdges: equal-probability parallel edges are legal;
// each delete consumes exactly one copy.
func TestApplyDeltaParallelEdges(t *testing.T) {
	b := NewBuilder(3, true)
	for i := 0; i < 3; i++ {
		if err := b.AddEdge(0, 1, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	one, _, err := g.ApplyDelta(nil, []Edge{{0, 1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if one.M() != 2 {
		t.Fatalf("m=%d after deleting one of three parallel edges", one.M())
	}
	two, _, err := one.ApplyDelta(nil, []Edge{{0, 1, 0}, {0, 1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if two.M() != 0 {
		t.Fatalf("m=%d after deleting the remaining copies", two.M())
	}
	if _, _, err := two.ApplyDelta(nil, []Edge{{0, 1, 0}}); err == nil {
		t.Fatal("deleting from an empty pair should fail")
	}
}

// TestApplyDeltaEmpty: the empty delta is a structural no-op that still
// bumps the epoch (callers use it as a copy-with-new-epoch primitive).
func TestApplyDeltaEmpty(t *testing.T) {
	g := MustFromEdges(4, true, []Edge{{0, 1, 0.5}, {1, 2, 0.5}, {3, 1, 0.5}})
	ng, dres, err := g.ApplyDelta(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(dres.Touched) != 0 || dres.Inserted != 0 || dres.Deleted != 0 {
		t.Fatalf("empty delta result %+v", dres)
	}
	if ng.Epoch() != 1 {
		t.Fatalf("epoch %d", ng.Epoch())
	}
	assertGraphsEquivalent(t, ng, g)
}
