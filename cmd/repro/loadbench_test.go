package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestWallMS pins the fractional-milliseconds rendering: the old
// Milliseconds() truncation reported 0 for anything under 1ms, which is
// every tiny-fixture gen run.
func TestWallMS(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want float64
	}{
		{0, 0},
		{-time.Second, 0},
		{500 * time.Nanosecond, 0.001}, // floor: positive work never reports 0
		{100 * time.Microsecond, 0.1},
		{1500 * time.Microsecond, 1.5},
		{2 * time.Second, 2000},
	} {
		if got := wallMS(tc.d); got != tc.want {
			t.Errorf("wallMS(%s) = %g, want %g", tc.d, got, tc.want)
		}
	}
}

// TestGenTinyFixtureWallMS runs the actual gen path on the smallest
// fixture and checks the reported wall time is positive — the regression
// was a wall_ms of 0 for every sub-millisecond generation.
func TestGenTinyFixtureWallMS(t *testing.T) {
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	genErr := cmdGen([]string{"--dataset", "nethept-s", "--scale", "0.002"})
	w.Close()
	os.Stdout = old
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if genErr != nil {
		t.Fatal(genErr)
	}
	var row genRow
	if err := json.Unmarshal(out, &row); err != nil {
		t.Fatalf("gen output %q: %v", out, err)
	}
	if row.WallMS <= 0 {
		t.Errorf("tiny gen reported wall_ms = %g, want > 0", row.WallMS)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.5, 5}, {0.95, 10}, {0.99, 10}, {0.1, 1}} {
		if got := percentile(sorted, tc.q); got != tc.want {
			t.Errorf("percentile(%.2f) = %g, want %g", tc.q, got, tc.want)
		}
	}
	// Rounding q·n = 11.4 to the nearest rank would give 11; nearest-rank
	// takes ceil(q·n) = 12.
	twelve := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	if got := percentile(twelve, 0.95); got != 12 {
		t.Errorf("percentile(0.95) of 1..12 = %g, want 12", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(empty) = %g, want 0", got)
	}
}

// TestCmdLoadBenchSmoke runs a sub-second loadbench against the tiny
// instance end to end, checks the document's internal consistency, and
// renders it through `repro report` — the same sanity contract the CI
// smoke asserts on a committed fixture.
func TestCmdLoadBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spins a server and a timed load window")
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "BENCH_serve_tiny.json")
	err := cmdLoadBench([]string{
		"--dataset", "nethept-s", "--scale", "0.004", "--cost", "uniform",
		"--k", "5", "--reps", "2", "--adg-theta", "1000", "--nsg-theta", "2000",
		"--clients", "2", "--duration", "400ms", "--out", out,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc serveBenchOutput
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Kind != serveBenchKind {
		t.Fatalf("kind = %q, want %q", doc.Kind, serveBenchKind)
	}
	if doc.Campaigns <= 0 || doc.Steps <= 0 || doc.CampaignsPerSec <= 0 {
		t.Fatalf("no load measured: %+v", doc)
	}
	if !(doc.StepP99MS >= doc.StepP95MS && doc.StepP95MS >= doc.StepP50MS && doc.StepP50MS > 0) {
		t.Fatalf("latency percentiles inconsistent: p50=%g p95=%g p99=%g",
			doc.StepP50MS, doc.StepP95MS, doc.StepP99MS)
	}

	// The document must route to the serve path and render its section.
	b, sv, err := readBench(out)
	if err != nil {
		t.Fatal(err)
	}
	if b != nil || sv == nil {
		t.Fatalf("serve document misrouted: bench=%v serve=%v", b, sv)
	}
	mdPath := filepath.Join(dir, "E.md")
	if err := cmdReport([]string{"--out", mdPath, out}); err != nil {
		t.Fatal(err)
	}
	md, err := os.ReadFile(mdPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(md, []byte("## Serving throughput: nethept-s/ic/uniform")) {
		t.Fatalf("report missing serving section:\n%s", md)
	}
	if !strings.Contains(string(md), "campaigns/s") {
		t.Fatalf("serving table malformed:\n%s", md)
	}
}
