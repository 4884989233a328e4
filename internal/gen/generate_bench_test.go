package gen

import (
	"testing"

	"repro/internal/rng"
)

// BenchmarkGenerate times the whole generator on dblp-s at scale 0.25
// (164k nodes, 982k directed edges): preferential attachment, Dedup, the
// weighted-cascade weighting and Build.
//
//	go test -run xxx -bench 'BenchmarkGenerate$' ./internal/gen/
func BenchmarkGenerate(b *testing.B) {
	ds, err := Lookup("dblp-s")
	if err != nil {
		b.Fatal(err)
	}
	cfg := ds.Config(0.25)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkErdosRenyi times the Erdős–Rényi wiring alone (no dedup or
// build) on livejournal-s at scale 0.01, directed: 48.5k nodes and 1.38M
// arcs, each drawn pair checked against the ones already accepted.
func BenchmarkErdosRenyi(b *testing.B) {
	ds, err := Lookup("livejournal-s")
	if err != nil {
		b.Fatal(err)
	}
	cfg := ds.Config(0.01)
	cfg.Model = ErdosRenyi
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := erdosRenyi(cfg, rng.New(cfg.Seed)); err != nil {
			b.Fatal(err)
		}
	}
}
