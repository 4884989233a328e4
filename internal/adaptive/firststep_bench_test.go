package adaptive

import (
	"slices"
	"testing"
	"time"

	"repro/internal/cascade"
	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/rng"
)

// BenchmarkFirstStepDBLP times a campaign's first decision on
// paper-dblp-hatp's instance: dblp-s at quarter scale (164k nodes) under
// IC, HATP with the sequential policy, two workers. The instance's shared
// first look is grown by one untimed campaign first, so every timed step
// copies its looks from it, as a warm instance's campaigns do. Each
// iteration opens a session and times only its first NextSeed, by hand,
// so the session's set-up stays out of the figure without a StopTimer
// around it; p50_ns is the median over the iterations.
func BenchmarkFirstStepDBLP(b *testing.B) {
	ds, err := gen.Lookup("dblp-s")
	if err != nil {
		b.Fatal(err)
	}
	g, err := gen.Generate(ds.Config(0.25))
	if err != nil {
		b.Fatal(err)
	}
	inst, _, err := Prepare(g, cascade.IC, Setup{K: 50, CostSetting: cost.Uniform, Seed: 1, Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	opts := RunOptions{Sampling: SamplingOptions{Workers: 2}}
	step := func(seed uint64) time.Duration {
		sess, err := NewSession(inst, AlgoHATP, opts, rng.New(seed).Split())
		if err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		if _, _, err := sess.NextSeed(); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}
	step(0)
	times := make([]time.Duration, b.N)
	b.ResetTimer()
	for i := range times {
		times[i] = step(uint64(i) + 1)
	}
	slices.Sort(times)
	b.ReportMetric(float64(times[len(times)/2].Nanoseconds()), "p50_ns")
}
