package graph_test

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// BenchmarkBuild times Dedup + Build on dblp-s at scale 0.25 (164k nodes,
// 982k directed edges), the graph the paper-dblp-hatp workload runs on.
// The edge list is the generated graph's, shuffled with a fixed seed so
// the builder sees no pre-existing order; filling the builder is not
// timed:
//
//	go test -run xxx -bench 'BenchmarkBuild$' ./internal/graph/
func BenchmarkBuild(b *testing.B) {
	ds, err := gen.Lookup("dblp-s")
	if err != nil {
		b.Fatal(err)
	}
	g, err := gen.Generate(ds.Config(0.25))
	if err != nil {
		b.Fatal(err)
	}
	edges := g.Edges()
	r := rng.New(1)
	r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		gb := graph.NewBuilder(g.N(), g.Directed())
		for _, e := range edges {
			if err := gb.AddEdge(e.From, e.To, e.P); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		gb.Dedup()
		gb.Build()
	}
}
