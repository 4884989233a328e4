package gen_test

import (
	"slices"
	"testing"
	"time"

	"repro/internal/adaptive"
	"repro/internal/cascade"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// BenchmarkWorldFeedback is one simulated campaign's world-side cost on
// dblp-s at scale 0.25 (164k nodes, 982k edges) under IC: sample a
// realization, wrap it in an environment, and observe 15 seeds — the 15
// largest out-degree nodes, the hubs an adaptive policy seeds first. It
// reports the world (Sample + NewEnvironment) and per-Observe times
// separately:
//
//	go test -run xxx -bench WorldFeedback ./internal/gen/
func BenchmarkWorldFeedback(b *testing.B) {
	ds, err := gen.Lookup("dblp-s")
	if err != nil {
		b.Fatal(err)
	}
	g, err := gen.Generate(ds.Config(0.25))
	if err != nil {
		b.Fatal(err)
	}
	seeds := make([]graph.NodeID, g.N())
	for i := range seeds {
		seeds[i] = graph.NodeID(i)
	}
	slices.SortStableFunc(seeds, func(u, v graph.NodeID) int { return g.OutDegree(v) - g.OutDegree(u) })
	seeds = seeds[:15]
	r := rng.New(1)
	var world, feedback time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		env := adaptive.NewEnvironment(cascade.Sample(g, cascade.IC, r))
		mid := time.Now()
		for _, u := range seeds {
			env.Observe(u)
		}
		world += mid.Sub(start)
		feedback += time.Since(mid)
	}
	b.ReportMetric(float64(world.Microseconds())/float64(b.N), "world_us/op")
	b.ReportMetric(float64(feedback.Microseconds())/float64(b.N*len(seeds)), "feedback_us/observe")
}
