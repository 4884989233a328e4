package sweep

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
)

func TestParseChurn(t *testing.T) {
	for _, tc := range []struct {
		in    string
		frac  float64
		every int
	}{
		{"none", 0, 0},
		{"NONE", 0, 0},
		{"", 0, 0},
		{"1@2", 0.01, 2},
		{"0.5@1", 0.005, 1},
		{"100@10", 1, 10},
	} {
		frac, every, err := ParseChurn(tc.in)
		if err != nil || frac != tc.frac || every != tc.every {
			t.Fatalf("ParseChurn(%q) = (%g, %d, %v), want (%g, %d, nil)",
				tc.in, frac, every, err, tc.frac, tc.every)
		}
	}
	for _, bad := range []string{"1", "@2", "1@", "0@2", "101@2", "1@0", "1@-3", "x@2", "1@x", "2@1@1"} {
		if _, _, err := ParseChurn(bad); err == nil {
			t.Fatalf("ParseChurn(%q) accepted", bad)
		}
	}
}

func TestSpecValidateRejectsBadChurn(t *testing.T) {
	s := tinySpec()
	s.Churns = []string{"none", "200@1"}
	if err := s.Validate(); err == nil {
		t.Fatal("invalid churn schedule passed validation")
	}
}

// TestSweepChurnGrid runs a grid with a temporal axis: churn cells get
// distinct journal keys (static keys unchanged), report their mutation
// counts, resume skips them like any other cell, and the whole journal is
// deterministic across reruns.
func TestSweepChurnGrid(t *testing.T) {
	newSpec := func() *Spec {
		s := tinySpec()
		s.Models = []string{"ic"}
		s.Algos = []string{"all-targets", "addatp"}
		s.Churns = []string{"none", "2@1"}
		return s
	}

	runOnce := func(name string) ([]Record, []byte) {
		spec := newSpec()
		path := filepath.Join(t.TempDir(), name)
		j, err := CreateJournal(path, spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), spec, Options{Journal: j})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if len(res.Errors) != 0 {
			t.Fatalf("cell errors: %v", res.Errors)
		}
		if len(res.Rows) != 4 {
			t.Fatalf("got %d rows, want 4", len(res.Rows))
		}
		for _, row := range res.Rows {
			switch row.Churn {
			case "":
				if row.Mutations != 0 {
					t.Fatalf("static %s row reports %d mutations", row.Algo, row.Mutations)
				}
			case "2@1":
				if row.Mutations == 0 {
					t.Fatalf("churn %s row applied no deltas", row.Algo)
				}
			default:
				t.Fatalf("unexpected row churn %q", row.Churn)
			}
		}
		records, err := ReadJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		data, err := Canonical(records)
		if err != nil {
			t.Fatal(err)
		}
		return records, data
	}

	records, first := runOnce("SWEEP_churn1.jsonl")
	_, second := runOnce("SWEEP_churn2.jsonl")
	if !bytes.Equal(first, second) {
		t.Fatalf("churn sweep not deterministic:\n%s\nvs\n%s", first, second)
	}

	// Key shape: static cells keep the historical four-segment key,
	// temporal cells append the schedule.
	done := CompletedCells(records)
	for _, want := range []string{
		"nethept-s/ic/uniform/all-targets",
		"nethept-s/ic/uniform/all-targets/churn=2@1",
		"nethept-s/ic/uniform/addatp",
		"nethept-s/ic/uniform/addatp/churn=2@1",
	} {
		if !done[want] {
			t.Fatalf("journal missing cell %s (have %v)", want, done)
		}
	}

	// Resume semantics: every completed cell — churn cells included — is
	// skipped, so a finished journal resumes to a no-op.
	spec := newSpec()
	res, err := Run(context.Background(), spec, Options{Skip: done})
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped != 4 || len(res.Rows) != 0 {
		t.Fatalf("resume reran cells: skipped %d, rows %d", res.Skipped, len(res.Rows))
	}
}

// TestChurnGridGolden pins the values of churn cells, not only their
// determinism: a tiny IC+LT grid over the adaptive policies, ADG and
// all-targets, static and churning every round, must canonicalize to the
// committed journal byte for byte. A change to how a temporal cell
// drives its realizations, draws its deltas or re-homes its world shows
// up here as a diff.
func TestChurnGridGolden(t *testing.T) {
	spec := tinySpec()
	spec.Algos = []string{"adg", "addatp", "hatp", "all-targets"}
	spec.Churns = []string{"none", "2@1"}
	path := filepath.Join(t.TempDir(), "SWEEP_churn.jsonl")
	runToJournal(t, spec, path)
	got := canonicalBytes(t, path)
	want, err := os.ReadFile(filepath.Join("testdata", "SWEEP_churn_golden.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("churn grid diverged from the golden journal:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
