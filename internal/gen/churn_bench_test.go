package gen_test

import (
	"testing"

	"repro/internal/adaptive"
	"repro/internal/cascade"
	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// These benchmarks pit the two ways of realizing a topology delta
// against each other on nethept-s at full scale with a 1% edge churn:
// graph.ApplyDelta patches the CSR and compressed in-probability tables
// per touched node, while the rebuild path reconstructs the whole graph
// from the edited edge list. BenchmarkApplyDelta applies the same delta
// to one Builder.Build graph, so every iteration is a campaign's first
// delta: it shares the base arenas and writes only the touched runs into
// a fresh overflow; BenchmarkApplyDeltaChain chains deltas the way a live
// campaign does, so most of them append to the overflow in place. The delta path is the reason temporal
// sweeps and the mutate endpoint are cheap; run with
//
//	go test -bench 'Delta' -run xxx ./internal/gen/
//
// to compare.
func churnFixture(b *testing.B) (*graph.Graph, []graph.Edge, []graph.Edge) {
	b.Helper()
	ds, err := gen.Lookup("nethept-s")
	if err != nil {
		b.Fatal(err)
	}
	g, err := gen.Generate(ds.Config(1))
	if err != nil {
		b.Fatal(err)
	}
	inserts, deletes := gen.ChurnDeltas(g, 0.01, rng.New(42))
	if len(deletes) == 0 || len(inserts) == 0 {
		b.Fatalf("degenerate churn: %d inserts, %d deletes", len(inserts), len(deletes))
	}
	return g, inserts, deletes
}

func BenchmarkApplyDelta(b *testing.B) {
	g, inserts, deletes := churnFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := g.ApplyDelta(inserts, deletes); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRebuildAfterDelta(b *testing.B) {
	g, inserts, deletes := churnFixture(b)
	// The edited edge list is the rebuild's input, not part of its cost:
	// a real ingest pipeline would have it on hand.
	gone := make(map[[2]graph.NodeID]bool, len(deletes))
	for _, e := range deletes {
		gone[[2]graph.NodeID{e.From, e.To}] = true
	}
	base := g.Edges()
	edited := make([]graph.Edge, 0, len(base)+len(inserts))
	for _, e := range base {
		if !gone[[2]graph.NodeID{e.From, e.To}] {
			edited = append(edited, e)
		}
	}
	edited = append(edited, inserts...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nb := graph.NewBuilder(g.N(), true)
		for _, e := range edited {
			if err := nb.AddEdge(e.From, e.To, e.P); err != nil {
				b.Fatal(err)
			}
		}
		if got := nb.Build(); got.M() != g.M() {
			b.Fatalf("rebuilt m=%d, want %d", got.M(), g.M())
		}
	}
}

// BenchmarkApplyDeltaChain applies chained 0.1% churn deltas to
// epinions-s at half scale (66k nodes, 858k arcs): each delta is drawn on
// and applied to the previous one's output, as Session.Mutate does during
// a churning campaign. The deltas are drawn up front, outside the timer,
// and the chain restarts from the base graph every len(deltas) steps, so
// the timed mix matches a campaign: a first delta into a fresh overflow,
// then in-place appends with an occasional overflow compaction or fold.
func BenchmarkApplyDeltaChain(b *testing.B) {
	ds, err := gen.Lookup("epinions-s")
	if err != nil {
		b.Fatal(err)
	}
	base, err := gen.Generate(ds.Config(0.5))
	if err != nil {
		b.Fatal(err)
	}
	type delta struct{ inserts, deletes []graph.Edge }
	deltas := make([]delta, 16)
	g := base
	for i := range deltas {
		ins, dels := gen.ChurnDeltas(g, 0.001, rng.New(uint64(i)+1))
		deltas[i] = delta{ins, dels}
		if g, _, err = g.ApplyDelta(ins, dels); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(deltas)
		if k == 0 {
			g = base
		}
		if g, _, err = g.ApplyDelta(deltas[k].inserts, deltas[k].deletes); err != nil {
			b.Fatal(err)
		}
	}
}

// churnSession drives the state a churning campaign checkpoints:
// epinions-s at half scale (66k nodes), LT, ADDATP with two workers, 30
// observed rounds with a 0.1% churn delta every second round (each
// followed by a world resampled on the new graph), so the session holds a
// 15-delta log, the removal log and a warm RR collection. It returns the
// base instance with the session.
func churnSession(b *testing.B) (*adaptive.Instance, *adaptive.Session) {
	b.Helper()
	ds, err := gen.Lookup("epinions-s")
	if err != nil {
		b.Fatal(err)
	}
	g, err := gen.Generate(ds.Config(0.5))
	if err != nil {
		b.Fatal(err)
	}
	inst, _, err := adaptive.Prepare(g, cascade.LT, adaptive.Setup{K: 50, CostSetting: cost.Uniform, Seed: 1, Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	root := rng.New(3)
	world := root.Split()
	sess, err := adaptive.NewSession(inst, adaptive.AlgoADDATP, adaptive.RunOptions{
		Sampling: adaptive.SamplingOptions{Workers: 2},
	}, root.Split())
	if err != nil {
		b.Fatal(err)
	}
	env := adaptive.NewEnvironment(cascade.Sample(inst.G, inst.Model, world))
	for round := 1; round <= 30; round++ {
		u, stop, err := sess.NextSeed()
		if err != nil {
			b.Fatal(err)
		}
		if stop {
			b.Fatalf("campaign stopped after %d rounds", round-1)
		}
		if err := sess.Observe(env.Observe(u)); err != nil {
			b.Fatal(err)
		}
		if round%2 != 0 {
			continue
		}
		ins, dels := gen.ChurnDeltas(sess.Instance().G, 0.001, rng.New(uint64(round)))
		if _, err := sess.Mutate(ins, dels); err != nil {
			b.Fatal(err)
		}
		rz := cascade.Sample(sess.Instance().G, inst.Model, rng.New(uint64(1000+round)))
		env = adaptive.NewEnvironmentAt(rz, sess.CloneResidual(), sess.Spread())
	}
	return inst, sess
}

// BenchmarkSessionCheckpoint times adaptive.Session.Checkpoint on the
// churnSession state, driven once outside the timer. blob_KB is the
// checkpoint's size, and B/op and allocs/op should read one blob-sized
// allocation.
func BenchmarkSessionCheckpoint(b *testing.B) {
	_, sess := churnSession(b)
	blob, err := sess.Checkpoint()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if blob, err = sess.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(blob))/1024, "blob_KB")
}

// BenchmarkSessionResume times adaptive.ResumeSession of the
// churnSession checkpoint onto its base instance: the replay of 30
// rounds and 15 deltas, RR draws included. The instance's shared first
// look is drawn before the timer starts, as a serving registry's is.
func BenchmarkSessionResume(b *testing.B) {
	inst, sess := churnSession(b)
	blob, err := sess.Checkpoint()
	if err != nil {
		b.Fatal(err)
	}
	want := sess.Result()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resumed, err := adaptive.ResumeSession(inst, blob, adaptive.ResumeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if got := resumed.Result(); got.RRDrawn != want.RRDrawn || got.Spread != want.Spread {
			b.Fatalf("resumed session drew %d sets for spread %d, original %d and %d", got.RRDrawn, got.Spread, want.RRDrawn, want.Spread)
		}
	}
	b.ReportMetric(float64(len(blob))/1024, "blob_KB")
}

// BenchmarkChurnDeltas times drawing one 0.1% churn delta on epinions-s
// at half scale after four chained deltas, the graph shape a churning
// campaign draws its later deltas on.
func BenchmarkChurnDeltas(b *testing.B) {
	ds, err := gen.Lookup("epinions-s")
	if err != nil {
		b.Fatal(err)
	}
	g, err := gen.Generate(ds.Config(0.5))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		ins, dels := gen.ChurnDeltas(g, 0.001, rng.New(uint64(i)+1))
		if g, _, err = g.ApplyDelta(ins, dels); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.ChurnDeltas(g, 0.001, rng.New(uint64(i)))
	}
}
