package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sampleBench() *benchOutput {
	return &benchOutput{
		Datasets:     []string{"epinions-s", "nethept-s"},
		Algos:        []string{"hatp", "addatp"},
		CostSettings: []string{"uniform"},
		Model:        "ic",
		Scale:        0.05,
		Seed:         1,
		WallMS:       1234,
		Rows: []*resultRow{
			{Algo: "addatp", Dataset: "nethept-s", Model: "IC", CostSetting: "uniform", Realizations: 2,
				AvgProfit: 42.5, AvgRounds: 7, RRDrawn: 100000, RRReused: 900000, RRPeakBytes: 2 << 20},
			{Algo: "hatp", Dataset: "nethept-s", Model: "IC", CostSetting: "uniform", Realizations: 2,
				AvgProfit: 41.25, AvgRounds: 6.5, RRDrawn: 12000, RRReused: 50000, RRPeakBytes: 1 << 20},
		},
		Errors: []string{"epinions-s/uniform: boom"},
	}
}

func TestRenderReportTables(t *testing.T) {
	md := renderReport([]*benchOutput{sampleBench()}, nil, []string{"BENCH_x.json"})
	for _, want := range []string{
		"# EXPERIMENTS",
		"## models=IC scale=0.05 seed=1",
		"### Profit",
		"### Rounds",
		"### RR sets drawn",
		"### RR sets reused",
		"### Peak RR arena",
		"| dataset | addatp | hatp |", // CLI order, not input order
		"| nethept-s | 42.50 | 41.25 |",
		"| nethept-s | 7.0 | 6.5 |",
		"| nethept-s | 100000 | 12000 |",
		"| nethept-s | 900000 | 50000 |",
		"| nethept-s | 2.00 MiB | 1.00 MiB |",
		"| epinions-s | — | — |", // missing cells render as em-dash
		"- epinions-s/uniform: boom",
	} {
		if !strings.Contains(md, want) {
			t.Fatalf("report missing %q:\n%s", want, md)
		}
	}
	// Registry order puts nethept-s before epinions-s regardless of the
	// bench's dataset list order.
	if strings.Index(md, "| nethept-s |") > strings.Index(md, "| epinions-s |") {
		t.Fatal("datasets not in Table II registry order")
	}
	// The traffic-model table is gated on the counters existing: these
	// rows predate them, so no table of dashes is rendered.
	if strings.Contains(md, "### RR traffic model") {
		t.Fatal("traffic-model table rendered for counter-less rows")
	}
}

// TestRenderReportTrafficAndThroughput covers the counter-gated traffic
// table: rows carrying visit/touch counters unlock the traffic-model
// table.
func TestRenderReportTrafficAndThroughput(t *testing.T) {
	bench := sampleBench()
	bench.Rows[0].RRVisits = 1000
	bench.Rows[0].RREdgeTouches = 4000 // (4·4000 + 17·1000)/4000 = 8.2
	md := renderReport([]*benchOutput{bench}, nil, []string{"BENCH_x.json"})
	for _, want := range []string{
		"### RR traffic model",
		"| nethept-s | 8.2 B/touch | — |",
	} {
		if !strings.Contains(md, want) {
			t.Fatalf("report missing %q:\n%s", want, md)
		}
	}
}

func TestCmdReportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "BENCH_t.json")
	raw, err := json.Marshal(sampleBench())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(in, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "EXPERIMENTS.md")
	if err := cmdReport([]string{"--out", out, in}); err != nil {
		t.Fatal(err)
	}
	md, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(md), "### Profit") {
		t.Fatalf("round-tripped report malformed:\n%s", md)
	}
	// Deterministic: rendering the same fixture twice is byte-identical,
	// which is what lets CI diff EXPERIMENTS.md against the fixture.
	if err := cmdReport([]string{"--out", out + "2", in}); err != nil {
		t.Fatal(err)
	}
	md2, err := os.ReadFile(out + "2")
	if err != nil {
		t.Fatal(err)
	}
	if string(md) != string(md2) {
		t.Fatal("report not deterministic across runs")
	}
}

func TestCmdReportNoInputs(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	if err := cmdReport([]string{"--out", filepath.Join(dir, "E.md")}); err == nil {
		t.Fatal("report with no BENCH files succeeded")
	}
}

// seqFixedBenches builds the same configuration run under both stopping
// rules, the shape the sequential-vs-fixed comparison section keys on.
func seqFixedBenches() []*benchOutput {
	row := func(sampler string, drawn int64, profit float64) *resultRow {
		return &resultRow{Algo: "addatp", Dataset: "nethept-s", CostSetting: "uniform",
			Model: "IC", Scale: 0.1, Seed: 1, K: 50, Targets: 50, Budget: 600.25,
			Realizations: 2, Sampler: sampler,
			RRDrawn: drawn, AvgProfit: profit, Attempts: 10, RRBatches: 5, Fallbacks: 2, CertifiedEarly: 3}
	}
	return []*benchOutput{
		{Datasets: []string{"nethept-s"}, Algos: []string{"addatp"}, CostSettings: []string{"uniform"},
			Model: "IC", Scale: 0.1, Seed: 1, Sampler: "fixed", Rows: []*resultRow{row("fixed", 1000000, 100)}},
		{Datasets: []string{"nethept-s"}, Algos: []string{"addatp"}, CostSettings: []string{"uniform"},
			Model: "IC", Scale: 0.1, Seed: 1, Sampler: "seq", Rows: []*resultRow{row("seq", 100000, 98)}},
	}
}

func TestRenderSamplerComparison(t *testing.T) {
	md := renderReport(seqFixedBenches(), nil, []string{"BENCH_f.json", "BENCH_s.json"})
	for _, want := range []string{
		"## models=IC scale=0.1 seed=1 sampler=fixed",
		"## models=IC scale=0.1 seed=1 sampler=seq",
		"## Sequential vs fixed sampling",
		"| nethept-s · uniform · IC · scale 0.1 · seed 1 · k 50 · 2 reps · addatp | 1000000 | 100000 | 10.0× | 100.00 | 98.00 | 2 → 2 |",
		"### Stopping-rule telemetry",
		"10 looks · 5 batches · 3 early · 2 fallbacks",
	} {
		if !strings.Contains(md, want) {
			t.Fatalf("report missing %q:\n%s", want, md)
		}
	}
	// A lone sampler (no counterpart) must not emit the comparison section.
	md = renderReport(seqFixedBenches()[:1], nil, []string{"BENCH_f.json"})
	if strings.Contains(md, "## Sequential vs fixed sampling") {
		t.Fatal("comparison section rendered without both samplers")
	}
	// Pairs whose instances diverged (different IMM targets/budget) are
	// marked as not directly comparable.
	div := seqFixedBenches()
	div[1].Rows[0].Budget = 999
	md = renderReport(div, nil, []string{"BENCH_f.json", "BENCH_s.json"})
	if !strings.Contains(md, "· addatp † |") {
		t.Fatalf("diverging-instance pair not marked:\n%s", md)
	}
	// Rows differing in k or reps must not pair up at all.
	kdiff := seqFixedBenches()
	kdiff[1].Rows[0].K = 25
	md = renderReport(kdiff, nil, []string{"BENCH_f.json", "BENCH_s.json"})
	if strings.Contains(md, "## Sequential vs fixed sampling") {
		t.Fatal("rows with different k paired as an A/B")
	}
}
