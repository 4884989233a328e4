package sweep

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

// tinySpec is a fast real grid: nethept-s clamps to 64 nodes at this
// scale, so IMM, sampling, and the realizations all run in milliseconds.
func tinySpec() *Spec {
	s := &Spec{
		Datasets:     []string{"nethept-s"},
		Models:       []string{"ic", "lt"},
		CostSettings: []string{"uniform"},
		Algos:        []string{"all-targets", "nsg"},
		Scale:        0.004,
		K:            5,
		Reps:         2,
		Seed:         7,
		NSGTheta:     2000,
		ADGTheta:     1000,
	}
	s.SetDefaults()
	return s
}

func TestSpecCellsOrderAndKeys(t *testing.T) {
	s := tinySpec()
	cells := s.Cells()
	if len(cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(cells))
	}
	wantKeys := []string{
		"nethept-s/ic/uniform/all-targets",
		"nethept-s/ic/uniform/nsg",
		"nethept-s/lt/uniform/all-targets",
		"nethept-s/lt/uniform/nsg",
	}
	for i, c := range cells {
		if c.Key() != wantKeys[i] {
			t.Fatalf("cell %d key %q, want %q", i, c.Key(), wantKeys[i])
		}
	}
	if cells[0].GroupKey() != cells[1].GroupKey() {
		t.Fatal("same-group cells have different group keys")
	}
	if cells[1].GroupKey() == cells[2].GroupKey() {
		t.Fatal("different models share a group key")
	}
}

func TestSpecValidateRejectsUnknownAxes(t *testing.T) {
	for _, mutate := range []func(*Spec){
		func(s *Spec) { s.Datasets = []string{"no-such-dataset"} },
		func(s *Spec) { s.Models = []string{"sir"} },
		func(s *Spec) { s.CostSettings = []string{"free"} },
		func(s *Spec) { s.Algos = []string{"bogosort"} },
		func(s *Spec) { s.Sampler = "psychic" },
	} {
		s := tinySpec()
		mutate(s)
		if err := s.Validate(); err == nil {
			t.Fatalf("invalid spec %+v passed validation", s)
		}
	}
	if err := tinySpec().Validate(); err != nil {
		t.Fatalf("tiny spec invalid: %v", err)
	}
}

// TestSpecValidateRejectsBadOptions: the experiment parameters go
// through adaptive.RunOptions.Validate, the check a checkpoint restore
// runs on its decoded options, so the two can never disagree.
func TestSpecValidateRejectsBadOptions(t *testing.T) {
	for name, mutate := range map[string]func(*Spec){
		"NaN zeta":         func(s *Spec) { s.Zeta = math.NaN() },
		"infinite eps":     func(s *Spec) { s.Eps = math.Inf(1) },
		"zero delta":       func(s *Spec) { s.Delta = 0 },
		"negative workers": func(s *Spec) { s.Workers = -1 },
		"zero nsg theta":   func(s *Spec) { s.NSGTheta = 0 },
		"huge adg theta":   func(s *Spec) { s.ADGTheta = 1 << 40 },
		"huge nsg theta":   func(s *Spec) { s.NSGTheta = 1<<24 + 1 },
		"NaN imm eps":      func(s *Spec) { s.ImmEps = math.NaN() },
	} {
		s := tinySpec()
		mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: passed validation", name)
		} else if err := s.RunOptions().Validate(); err == nil && name != "NaN imm eps" {
			t.Errorf("%s: RunOptions.Validate accepts what Spec.Validate refuses", name)
		}
	}
}

func TestJournalToleratesTruncatedTail(t *testing.T) {
	good := `{"type":"spec","version":1,"spec":{"datasets":["nethept-s"],"models":["ic"],"cost_settings":["uniform"],"algos":["nsg"],"scale":0.004,"k":5,"reps":1,"seed":7,"zeta":0.05,"eps":0.2,"delta":0.1,"adg_theta":1000,"nsg_theta":2000,"imm_eps":0.5,"sampler":"seq"}}
{"type":"cell","key":"nethept-s/ic/uniform/nsg","row":{"algo":"nsg"}}
`
	recs, valid, err := parseJournal([]byte(good + `{"type":"cell","key":"part`))
	if err != nil {
		t.Fatalf("truncated tail rejected: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2 (truncated tail dropped)", len(recs))
	}
	if valid != len(good) {
		t.Fatalf("valid offset %d, want %d (end of last complete record)", valid, len(good))
	}
	if _, _, err := parseJournal([]byte(`{"type":"cell","key":"part` + "\n" + good)); err == nil {
		t.Fatal("malformed non-tail line accepted")
	}
	done := CompletedCells(recs)
	if !done["nethept-s/ic/uniform/nsg"] || len(done) != 1 {
		t.Fatalf("completed cells = %v", done)
	}
}

func TestRunGridOrderSkipAndJournal(t *testing.T) {
	spec := tinySpec()
	path := filepath.Join(t.TempDir(), "SWEEP_t.jsonl")
	j, err := CreateJournal(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	skip := map[string]bool{"nethept-s/ic/uniform/nsg": true}
	res, err := Run(context.Background(), spec, Options{Journal: j, Skip: skip})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if res.Skipped != 1 {
		t.Fatalf("skipped %d cells, want 1", res.Skipped)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("unexpected errors: %v", res.Errors)
	}
	wantKeys := []string{
		"nethept-s/ic/uniform/all-targets",
		"nethept-s/lt/uniform/all-targets",
		"nethept-s/lt/uniform/nsg",
	}
	if len(res.Rows) != len(wantKeys) {
		t.Fatalf("got %d rows, want %d", len(res.Rows), len(wantKeys))
	}
	for i, row := range res.Rows {
		key := fmt.Sprintf("%s/%s/%s/%s", row.Dataset, strings.ToLower(row.Model), row.CostSetting, row.Algo)
		if key != wantKeys[i] {
			t.Fatalf("row %d is %s, want %s", i, key, wantKeys[i])
		}
	}
	records, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := JournalSpec(records); err != nil {
		t.Fatal(err)
	}
	done := CompletedCells(records)
	for _, k := range wantKeys {
		if !done[k] {
			t.Fatalf("journal missing completed cell %s (have %v)", k, done)
		}
	}
	if done["nethept-s/ic/uniform/nsg"] {
		t.Fatal("skipped cell was journaled")
	}
}

// TestRunParallelMatchesSerial: scheduling must not leak into results —
// a 4-worker sweep canonicalizes to the same bytes as a sequential one.
func TestRunParallelMatchesSerial(t *testing.T) {
	dir := t.TempDir()
	canonical := func(parallel int) []byte {
		spec := tinySpec()
		spec.Parallel = parallel
		path := filepath.Join(dir, fmt.Sprintf("SWEEP_p%d.jsonl", parallel))
		j, err := CreateJournal(path, spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(context.Background(), spec, Options{Journal: j}); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		records, err := ReadJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		data, err := Canonical(records)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	serial := canonical(1)
	parallel := canonical(4)
	// The spec records differ in the Parallel field by construction;
	// compare cell records only.
	trim := func(b []byte) string {
		lines := strings.SplitN(string(b), "\n", 2)
		if len(lines) < 2 {
			t.Fatal("canonical journal too short")
		}
		return lines[1]
	}
	if trim(serial) != trim(parallel) {
		t.Fatalf("parallel sweep diverged from serial:\n%s\nvs\n%s", serial, parallel)
	}
}

func TestExecuteInterrupt(t *testing.T) {
	spec := tinySpec()
	p, err := Prepare(spec, "nethept-s", "ic", "uniform")
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("budget exceeded")
	calls := 0
	_, err = Execute(spec, p, Cell{Dataset: "nethept-s", Model: "ic", Cost: "uniform", Algo: "nsg"},
		func() error { calls++; return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("interrupt error not propagated: %v", err)
	}
	if calls != 1 {
		t.Fatalf("interrupt polled %d times before abort, want 1", calls)
	}
}
