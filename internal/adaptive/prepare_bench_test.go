package adaptive

import (
	"testing"

	"repro/internal/cascade"
	"repro/internal/cost"
	"repro/internal/gen"
)

// benchmarkPrepare times Prepare — IMM's θ search, the target set's
// spread lower bound and cost calibration — with the benchmark
// workloads' set-up (k = 50, uniform cost, seed 1) on a generated
// stand-in. The graph is generated once, off the clock.
func benchmarkPrepare(b *testing.B, dataset string, scale float64, model cascade.Model, workers int) {
	ds, err := gen.Lookup(dataset)
	if err != nil {
		b.Fatal(err)
	}
	g, err := gen.Generate(ds.Config(scale))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Prepare(g, model, Setup{K: 50, CostSetting: cost.Uniform, Seed: 1, Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrepareDBLP is paper-dblp-hatp's set-up: dblp-s at quarter
// scale (164k nodes) under IC, two workers.
func BenchmarkPrepareDBLP(b *testing.B) { benchmarkPrepare(b, "dblp-s", 0.25, cascade.IC, 2) }

// BenchmarkPrepareEpinionsLT is churn-epinions-lt's set-up: epinions-s
// at half scale (66k nodes) under LT, two workers.
func BenchmarkPrepareEpinionsLT(b *testing.B) {
	benchmarkPrepare(b, "epinions-s", 0.5, cascade.LT, 2)
}

// BenchmarkPrepareNethept is serve-nethept's set-up: nethept-s at full
// scale (15k nodes) under IC, one worker.
func BenchmarkPrepareNethept(b *testing.B) { benchmarkPrepare(b, "nethept-s", 1, cascade.IC, 1) }
