package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestExplicitZeroFlagsRejected: every experiment parameter flag defaults
// to a positive value, so a zero on the command line is always an explicit
// request, and each subcommand that takes the shared flags must refuse it
// rather than quietly substitute the default. The base arguments keep a
// wrongly accepted case cheap and its outputs inside the test directory.
func TestExplicitZeroFlagsRejected(t *testing.T) {
	dir := t.TempDir()
	commands := []struct {
		name string
		run  func([]string) error
		base []string
	}{
		{"run", cmdRun, nil},
		{"bench", cmdBench, []string{"--algos", "all-targets", "--costs", "uniform", "--out", filepath.Join(dir, "BENCH.json")}},
		{"sweep", cmdSweep, []string{"--algos", "all-targets", "--costs", "uniform", "--models", "ic", "--journal", filepath.Join(dir, "SWEEP.jsonl")}},
		{"loadbench", cmdLoadBench, []string{"--duration", "10ms", "--clients", "1", "--out", filepath.Join(dir, "BENCH_serve.json")}},
		{"serve", cmdServe, []string{"--addr", "127.0.0.1:0"}},
	}
	flags := []struct {
		flag string
		want string // substring of the error
	}{
		{"--reps", "reps"},
		{"--scale", "scale"},
		{"--k", "k must be positive"},
		{"--zeta", "zeta"},
		{"--adg-theta", "theta"},
	}
	for _, c := range commands {
		for _, f := range flags {
			args := append([]string{"--scale", "0.004", "--k", "3", "--reps", "1"}, c.base...)
			args = append(args, f.flag, "0")
			err := c.run(args)
			if err == nil {
				t.Fatalf("repro %s %s 0: accepted", c.name, f.flag)
			}
			if !strings.Contains(err.Error(), f.want) {
				t.Fatalf("repro %s %s 0: error %q does not name %q", c.name, f.flag, err, f.want)
			}
		}
	}
}
