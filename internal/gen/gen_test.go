package gen

import (
	"math"
	"testing"

	"repro/internal/graph"
)

func generateOrFatal(t *testing.T, cfg Config) *graph.Graph {
	t.Helper()
	g, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate(%+v): %v", cfg, err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("generated graph invalid: %v", err)
	}
	return g
}

func TestGenerateAllModels(t *testing.T) {
	for _, model := range []Model{ErdosRenyi, PrefAttach, SmallWorld, PowerLawConfig} {
		for _, directed := range []bool{true, false} {
			cfg := Config{Model: model, N: 500, AvgDeg: 6, Directed: directed, Seed: 1}
			g := generateOrFatal(t, cfg)
			if g.N() != 500 {
				t.Fatalf("%v directed=%v: N=%d", model, directed, g.N())
			}
			avg := float64(g.M()) / float64(g.N())
			if avg < 2 || avg > 14 {
				t.Fatalf("%v directed=%v: average degree %v far from target 6", model, directed, avg)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Model: PrefAttach, N: 300, AvgDeg: 5, Directed: true, Seed: 42}
	a := generateOrFatal(t, cfg)
	b := generateOrFatal(t, cfg)
	if a.M() != b.M() {
		t.Fatalf("same seed produced different edge counts: %d vs %d", a.M(), b.M())
	}
	ae, be := a.Edges(), b.Edges()
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatalf("edge %d differs: %+v vs %+v", i, ae[i], be[i])
		}
	}
}

func TestGenerateSeedChangesGraph(t *testing.T) {
	base := Config{Model: PrefAttach, N: 300, AvgDeg: 5, Directed: true, Seed: 1}
	other := base
	other.Seed = 2
	a := generateOrFatal(t, base)
	b := generateOrFatal(t, other)
	ae, be := a.Edges(), b.Edges()
	if len(ae) == len(be) {
		same := 0
		for i := range ae {
			if ae[i] == be[i] {
				same++
			}
		}
		if same == len(ae) {
			t.Fatal("different seeds produced identical graphs")
		}
	}
}

func TestWeightedCascadeApplied(t *testing.T) {
	g := generateOrFatal(t, Config{Model: ErdosRenyi, N: 200, AvgDeg: 5, Directed: true, Seed: 3})
	for u := int32(0); u < int32(g.N()); u++ {
		adj, ps := g.OutNeighbors(u)
		for i, v := range adj {
			want := 1 / float64(g.InDegree(v))
			if p := ps.Of(i, v); math.Abs(p-want) > 1e-12 {
				t.Fatalf("edge (%d,%d): p=%v want 1/indeg=%v", u, v, p, want)
			}
		}
	}
}

func TestPrefAttachHeavyTail(t *testing.T) {
	g := generateOrFatal(t, Config{Model: PrefAttach, N: 2000, AvgDeg: 6, Directed: true, Seed: 7})
	maxIn, sumIn := 0, 0
	for u := int32(0); u < int32(g.N()); u++ {
		d := g.InDegree(u)
		sumIn += d
		if d > maxIn {
			maxIn = d
		}
	}
	avgIn := float64(sumIn) / float64(g.N())
	// Heavy tail: the hub should dwarf the average. Erdos-Renyi would give
	// max/avg around 3-4; preferential attachment should exceed 10.
	if float64(maxIn) < 10*avgIn {
		t.Fatalf("degree tail too light: max=%d avg=%.2f", maxIn, avgIn)
	}
}

func TestErdosRenyiLightTail(t *testing.T) {
	g := generateOrFatal(t, Config{Model: ErdosRenyi, N: 2000, AvgDeg: 6, Directed: true, Seed: 7})
	maxIn := 0
	for u := int32(0); u < int32(g.N()); u++ {
		if d := g.InDegree(u); d > maxIn {
			maxIn = d
		}
	}
	if maxIn > 40 {
		t.Fatalf("Erdos-Renyi produced an implausible hub: max indeg %d", maxIn)
	}
}

func TestPowerLawExponentControl(t *testing.T) {
	steep := generateOrFatal(t, Config{Model: PowerLawConfig, N: 3000, AvgDeg: 6, Directed: true, Seed: 5, Exponent: 3.0})
	flat := generateOrFatal(t, Config{Model: PowerLawConfig, N: 3000, AvgDeg: 6, Directed: true, Seed: 5, Exponent: 1.8})
	maxIn := func(g *graph.Graph) int {
		m := 0
		for u := int32(0); u < int32(g.N()); u++ {
			if d := g.InDegree(u); d > m {
				m = d
			}
		}
		return m
	}
	if maxIn(flat) <= maxIn(steep) {
		t.Fatalf("flatter exponent should give heavier tail: flat max=%d steep max=%d",
			maxIn(flat), maxIn(steep))
	}
}

func TestGenerateErrors(t *testing.T) {
	cases := []Config{
		{Model: ErdosRenyi, N: 1, AvgDeg: 2},                      // too few nodes
		{Model: ErdosRenyi, N: 100, AvgDeg: 0},                    // no degree
		{Model: PrefAttach, N: 3, AvgDeg: 10},                     // N <= k
		{Model: SmallWorld, N: 4, AvgDeg: 10},                     // k >= N
		{Model: PowerLawConfig, N: 100, AvgDeg: 5, Exponent: 0.5}, // bad exponent
		{Model: Model(99), N: 100, AvgDeg: 5},                     // unknown model
	}
	for _, cfg := range cases {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("Generate(%+v) accepted invalid config", cfg)
		}
	}
}

func TestDatasetRegistry(t *testing.T) {
	if len(Datasets) != 4 {
		t.Fatalf("registry has %d datasets, want 4 (Table II)", len(Datasets))
	}
	for _, d := range Datasets {
		if _, err := Lookup(d.Name); err != nil {
			t.Fatalf("Lookup(%q): %v", d.Name, err)
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("Lookup of unknown dataset succeeded")
	}
}

func TestDatasetStandInsMatchTable2Shape(t *testing.T) {
	// Generate the two smaller stand-ins at 1/50 scale and check that the
	// declared type and average degree track Table II.
	for _, name := range []string{"nethept-s", "epinions-s"} {
		spec, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := spec.Config(0.02)
		g, err := Generate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.Directed() != spec.Directed {
			t.Fatalf("%s: directedness mismatch", name)
		}
		avg := float64(g.M()) / float64(g.N())
		if avg < spec.AvgDeg/3 || avg > spec.AvgDeg*3 {
			t.Fatalf("%s: avg degree %.2f too far from Table II %.2f", name, avg, spec.AvgDeg)
		}
	}
}

func TestDatasetConfigScaleFloor(t *testing.T) {
	spec, _ := Lookup("nethept-s")
	cfg := spec.Config(0.000001)
	if cfg.N < 64 {
		t.Fatalf("scale floor violated: N=%d", cfg.N)
	}
	cfg = spec.Config(0) // 0 means paper scale
	if cfg.N != spec.PaperN {
		t.Fatalf("scale 0 should mean paper size, got N=%d", cfg.N)
	}
}

func TestModelString(t *testing.T) {
	names := map[Model]string{
		ErdosRenyi:     "erdos-renyi",
		PrefAttach:     "pref-attach",
		SmallWorld:     "small-world",
		PowerLawConfig: "power-law",
		Model(42):      "model(42)",
	}
	for m, want := range names {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(m), got, want)
		}
	}
}
