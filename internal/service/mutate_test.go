package service

import (
	"strings"
	"testing"

	"repro/internal/adaptive"
	"repro/internal/cascade"
	"repro/internal/gen"
	"repro/internal/rng"
	"repro/internal/sweep"
)

// TestMutatedCampaignEpochKeying is the regression test for topology-blind
// registry keys: after a campaign mutates its graph, its instance must
// live under the epoch-bumped key, the base entry must keep the pristine
// graph, and a fresh campaign on the base key must never see the mutated
// topology or its warm state.
func TestMutatedCampaignEpochKeying(t *testing.T) {
	reg := NewRegistry(testSpec(), 0)
	c1, err := reg.StartCampaign("m1", testKey(), adaptive.AlgoADDATP, 4242, true)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if _, stop, _, err := c1.Step(); err != nil || stop {
		t.Fatalf("first round: stop=%v err=%v", stop, err)
	}

	baseG := mustPrep(t, c1.inst).G
	if baseG.Epoch() != 0 {
		t.Fatalf("base graph at epoch %d", baseG.Epoch())
	}

	// Misuse gates before any mutation happens.
	if _, err := c1.Mutate(nil, nil, 0, 0); err == nil {
		t.Fatal("empty mutation succeeded")
	}

	info, err := c1.Mutate(nil, nil, 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	if info.Epoch != 1 || c1.Key.Epoch != 1 || info.Deleted < 1 || info.Touched < 1 {
		t.Fatalf("mutate info %+v, campaign key %v", info, c1.Key)
	}
	mutG := mustPrep(t, c1.inst).G
	if mutG == baseG || mutG.Epoch() != 1 {
		t.Fatalf("campaign instance still on the base graph (epoch %d)", mutG.Epoch())
	}

	// The base entry must still hold the pristine graph — this is the
	// stale-warm-instance regression: before epoch keying, c2 would share
	// c1's (now mutated) instance.
	c2, err := reg.StartCampaign("m2", testKey(), adaptive.AlgoADDATP, 4242, true)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if g2 := mustPrep(t, c2.inst).G; g2 != baseG || g2.Epoch() != 0 {
		t.Fatalf("fresh base campaign got graph at epoch %d (mutated instance leaked)", g2.Epoch())
	}
	if c2.inst == c1.inst || c2.Key == c1.Key {
		t.Fatal("base and mutated campaigns share an instance")
	}

	// The derived entry is acquirable while adopted; unknown epochs are not
	// preparable.
	dkey := testKey()
	dkey.Epoch = 1
	d, err := reg.Acquire(dkey)
	if err != nil {
		t.Fatal(err)
	}
	if d != c1.inst {
		t.Fatal("derived key resolved to a different instance")
	}
	d.Release()
	ghost := testKey()
	ghost.Epoch = 99
	if _, err := reg.Acquire(ghost); err == nil || !strings.Contains(err.Error(), "epoch") {
		t.Fatalf("acquiring an unadopted epoch: %v", err)
	}

	// Both campaigns still run to completion on their own topologies.
	r1 := driveCampaign(t, c1)
	r2 := driveCampaign(t, c2)
	if len(r1.Seeds) == 0 || len(r2.Seeds) == 0 {
		t.Fatalf("degenerate campaigns: %d and %d seeds", len(r1.Seeds), len(r2.Seeds))
	}
}

func mustPrep(t *testing.T, i *Instance) *sweep.Prepared {
	t.Helper()
	p, err := i.Prepared()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestMutatedCampaignCheckpointRestore: a campaign mutated mid-flight,
// checkpointed, and restored in a fresh registry entry must finish
// identically to the same mutated campaign run straight through — the
// checkpoint carries the delta log, and the restore path replays it from
// the base instance and re-adopts the epoch key.
func TestMutatedCampaignCheckpointRestore(t *testing.T) {
	reg := NewRegistry(testSpec(), 0)
	dir := t.TempDir()

	mutated := func(id string) *Campaign {
		c, err := reg.StartCampaign(id, testKey(), adaptive.AlgoADDATP, 31, true)
		if err != nil {
			t.Fatal(err)
		}
		if _, stop, _, err := c.Step(); err != nil || stop {
			t.Fatalf("pre-mutation round: stop=%v err=%v", stop, err)
		}
		if _, err := c.Mutate(nil, nil, 5, 5); err != nil {
			t.Fatal(err)
		}
		return c
	}

	ref := mutated("ref")
	want := driveCampaign(t, ref)
	ref.Close()

	cut := mutated("cut")
	if _, stop, _, err := cut.Step(); err != nil || stop {
		t.Fatalf("post-mutation round: stop=%v err=%v", stop, err)
	}
	file, err := cut.Checkpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	cut.Close()

	restored, _, err := reg.RestoreCampaign(file)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Key.Epoch != 1 {
		t.Fatalf("restored campaign at epoch %d, want 1", restored.Key.Epoch)
	}
	if g := mustPrep(t, restored.inst).G; g.Epoch() != 1 {
		t.Fatalf("restored instance graph at epoch %d, want 1", g.Epoch())
	}
	got := driveCampaign(t, restored)
	restored.Close()
	sameOutcome(t, got, want, "restored-mutated vs straight-through")
}

// TestMutatedCampaignKeepsWorld: a simulated campaign mutated with
// churn_pct after every round must realize the world the campaign seed
// names on every epoch — the same key on each new graph. The reference
// drives the same session by hand and, after each delta, re-samples the
// world on the new graph from a fresh copy of the seed's world stream
// around a clone of the session's residual.
func TestMutatedCampaignKeepsWorld(t *testing.T) {
	const seed = 4242
	reg := NewRegistry(testSpec(), 0)
	c, err := reg.StartCampaign("w", testKey(), adaptive.AlgoAllTargets, seed, true)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	prep := mustPrep(t, c.inst)
	spec := reg.Spec()

	root := rng.New(seed)
	world := root.Split()
	sess, err := adaptive.NewSession(prep.Inst, adaptive.AlgoAllTargets, spec.RunOptions(), root.Split())
	if err != nil {
		t.Fatal(err)
	}
	env := adaptive.NewEnvironment(cascade.Sample(prep.Inst.G, prep.Inst.Model, world))
	for round := uint64(1); ; round++ {
		u, stop, _, err := c.Step()
		if err != nil {
			t.Fatal(err)
		}
		v, refStop, err := sess.NextSeed()
		if err != nil {
			t.Fatal(err)
		}
		if stop != refStop || !stop && u != v {
			t.Fatalf("round %d: campaign proposed (%d, stop=%v), reference (%d, stop=%v)", round, u, stop, v, refStop)
		}
		if stop {
			break
		}
		if err := sess.Observe(env.Observe(v)); err != nil {
			t.Fatal(err)
		}
		if got := c.Result().Spread; got != sess.Spread() {
			t.Fatalf("round %d: campaign spread %d, reference %d", round, got, sess.Spread())
		}
		if _, err := c.Mutate(nil, nil, 20, round); err != nil {
			t.Fatal(err)
		}
		ins, dels := gen.ChurnDeltas(sess.Instance().G, 0.2, rng.New(round))
		if _, err := sess.Mutate(ins, dels); err != nil {
			t.Fatal(err)
		}
		rz := cascade.Sample(sess.Instance().G, prep.Inst.Model, rng.New(seed).Split())
		env = adaptive.NewEnvironmentAt(rz, sess.CloneResidual(), sess.Spread())
	}
	if sess.Mutations() < 2 {
		t.Fatalf("only %d deltas applied", sess.Mutations())
	}
}
