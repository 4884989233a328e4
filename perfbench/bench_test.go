package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkJSON is the repository-root BENCHMARK.json the runner serves.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) *benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return &b
}

// TestCatalogMatchesBenchmarkJSON keeps catalog.json, which carries the
// per-metric predictions, in step with BENCHMARK.json.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	cat, err := loadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(cat.Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, catalog %d", len(b.Workloads), len(cat.Workloads))
	}
	for i, w := range b.Workloads {
		c := cat.Workloads[i]
		if w.Name != c.Name || w.Why != c.Why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, catalog %q/%q", i, w.Name, w.Why, c.Name, c.Why)
		}
		if _, ok := workloadParams[w.Name]; !ok {
			t.Errorf("workload %q has no parameters", w.Name)
		}
	}
	same := func(kind string, got, want []metricDef, bounds bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, catalog %d", kind, len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || (bounds && g.Bound != w.Bound) {
				t.Errorf("%s %d: BENCHMARK.json %+v, catalog %+v", kind, i, g, w)
			}
		}
	}
	same("end_to_end", b.EndToEnd, cat.EndToEnd, true)
	same("per_layer", b.PerLayer, cat.PerLayer, false)

	// Every prediction names an end-to-end metric and workloads that exist.
	known := map[string]bool{}
	for _, m := range cat.EndToEnd {
		known[m.Name] = true
	}
	for _, w := range cat.Workloads {
		known[w.Name] = true
	}
	for _, m := range cat.PerLayer {
		for _, name := range append(append([]string(nil), m.Moves...), m.On...) {
			if !known[name] {
				t.Errorf("per-layer metric %s: prediction names unknown %q", m.Name, name)
			}
		}
	}
}

// TestWorkloadsTiny runs every workload at a tiny scale in both modes:
// each must pass its output checks and emit every metric BENCHMARK.json
// names, with its unit.
func TestWorkloadsTiny(t *testing.T) {
	cat, err := loadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	b := loadBenchmarkJSON(t)
	for _, w := range cat.Workloads {
		for _, trace := range []bool{false, true} {
			w, trace := w, trace
			name := w.Name + "/untraced"
			want := b.EndToEnd
			if trace {
				name, want = w.Name+"/traced", b.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				cfg := config{
					def: w, seed: 5, campaigns: 6, trace: trace,
					setupReps: 2, reps: 2, scale: 0.02, traceDir: t.TempDir(),
				}
				res, err := runWorkload(cfg, cat)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("metric %s: unit %q, want %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}

// TestSameSeedSameCounts checks that a seed fixes the campaign list: two
// runs with one seed agree exactly on profit, the RR counters and the IMM
// count.
func TestSameSeedSameCounts(t *testing.T) {
	cat, err := loadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	w, _ := cat.workload("churn-epinions-lt")
	exact := map[bool][]string{
		false: {"profit_mean"},
		true:  {"ris.rr_drawn", "ris.reuse_frac", "ris.peak_mb", "imm.rr_sets", "graph.touched_per_delta", "adaptive.checkpoint_kb"},
	}
	for trace, names := range exact {
		var first map[string]metricValue
		for i := 0; i < 2; i++ {
			res, err := runWorkload(config{
				def: w, seed: 9, campaigns: 4, trace: trace,
				setupReps: 1, reps: 1, scale: 0.02, traceDir: t.TempDir(),
			}, cat)
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = res.Metrics
				continue
			}
			for _, name := range names {
				if res.Metrics[name] != first[name] {
					t.Errorf("%s: %v then %v", name, first[name].Value, res.Metrics[name].Value)
				}
			}
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 0.5); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := percentile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.95); got != 10 {
		t.Errorf("p95 of 1..10 = %v, want 10", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestBreakdownAccountsForCampaignTime(t *testing.T) {
	tr := &tracer{on: true}
	tr.spans = []span{
		{Name: "campaign", Parent: -1, Start: 0, End: 100},
		{Name: "step", Parent: 0, Start: 10, End: 60},
		{Name: "decide", Parent: 1, Start: 10, End: 40},
		{Name: "observe", Parent: 1, Start: 45, End: 50},
		{Name: "checkpoint", Parent: 0, Start: 70, End: 90},
	}
	rows, unattributed := tr.breakdown()
	if unattributed != 0.3 {
		t.Errorf("unattributed = %v, want 0.3", unattributed)
	}
	self := 0.0
	for _, r := range rows {
		self += r.SelfMS
	}
	if d := self*1e6 - 100; d > 1e-6 || d < -1e-6 {
		t.Errorf("self times sum to %v ns, want 100", self*1e6)
	}
}
