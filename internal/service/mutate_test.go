package service

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/adaptive"
	"repro/internal/cascade"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sweep"
)

// TestMutatedCampaignEpochKeying: after a campaign mutates its graph,
// its reported key moves to the new topology epoch while the mutated
// graph stays the session's own. The base entry keeps the pristine
// graph, a fresh campaign on the base key never sees the mutated
// topology, and no registry key at an epoch other than 0 is acquirable.
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
	if info.Epoch != 1 || info.Key.Epoch != 1 || c1.Key.Epoch != 1 || info.Deleted < 1 || info.Touched < 1 {
		t.Fatalf("mutate info %+v, campaign key %v", info, c1.Key)
	}
	mutG := c1.sess.Instance().G
	if mutG == baseG || mutG.Epoch() != 1 {
		t.Fatalf("session still on the base graph (epoch %d)", mutG.Epoch())
	}
	if c1.inst.Key != testKey() || mustPrep(t, c1.inst).G != baseG {
		t.Fatalf("campaign left its base instance (holds %v)", c1.inst.Key)
	}

	// The base entry must still hold the pristine graph: the mutation
	// lives in c1's session, never in the instance c2 shares with it.
	c2, err := reg.StartCampaign("m2", testKey(), adaptive.AlgoADDATP, 4242, true)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if g2 := c2.sess.Instance().G; g2 != baseG || g2.Epoch() != 0 {
		t.Fatalf("fresh base campaign got graph at epoch %d (mutated graph leaked)", g2.Epoch())
	}
	if c2.inst != c1.inst || c2.Key.Epoch != 0 {
		t.Fatalf("fresh base campaign on instance %v, key %v", c2.inst.Key, c2.Key)
	}

	// Registry entries are epoch 0 only: the epoch c1 reports is not
	// acquirable, nor is any other.
	for _, epoch := range []int64{1, 99, -1} {
		k := testKey()
		k.Epoch = epoch
		if _, err := reg.Acquire(k); err == nil || !strings.Contains(err.Error(), "epoch") {
			t.Fatalf("acquiring epoch %d: %v", epoch, err)
		}
	}

	// Both campaigns still run to completion on their own topologies.
	r1 := driveCampaign(t, c1)
	r2 := driveCampaign(t, c2)
	if len(r1.Seeds) == 0 || len(r2.Seeds) == 0 {
		t.Fatalf("degenerate campaigns: %d and %d seeds", len(r1.Seeds), len(r2.Seeds))
	}
}

// TestMutatedCampaignKeepsBaseInstance: a campaign that steps, mutates
// three times, runs to completion and closes leaves exactly its base entry behind —
// prepared, with the campaign's batcher parked warm — even when the
// registry keeps a single idle instance. The next base campaign reuses
// that preparation instead of preparing again, and the campaign's RR
// traffic is counted under the base instance's label.
func TestMutatedCampaignKeepsBaseInstance(t *testing.T) {
	reg := NewRegistry(testSpec(), 1)
	m := NewMetrics(obs.NewRegistry())
	reg.AttachMetrics(m)
	t.Cleanup(func() { fault.SetObserver(nil) })

	c, err := reg.StartCampaign("m", testKey(), adaptive.AlgoADDATP, 4242, true)
	if err != nil {
		t.Fatal(err)
	}
	prep := mustPrep(t, c.inst)
	if _, stop, _, err := c.Step(); err != nil || stop {
		t.Fatalf("first round: stop=%v err=%v", stop, err)
	}
	for i := uint64(1); i <= 3; i++ {
		if _, err := c.Mutate(nil, nil, 5, i); err != nil {
			t.Fatal(err)
		}
	}
	if c.Key.Epoch != 3 {
		t.Fatalf("campaign key %v after three mutations", c.Key)
	}
	// Finish on the mutated graph so the post-delta draws reach the
	// traffic counters.
	drawn := driveCampaign(t, c).RRDrawn
	c.Close()

	stats := reg.Stats()
	if len(stats) != 1 {
		t.Fatalf("registry lists %d entries, want the base only: %+v", len(stats), stats)
	}
	if s := stats[0]; s.Key != testKey() || !s.Prepared || s.Refs != 0 || s.Warm != 1 {
		t.Fatalf("registry entry %+v, want %v prepared, idle, one warm batcher", s, testKey())
	}
	if got := m.rrDrawn.With(testKey().String()).Value(); drawn <= 0 || got != drawn {
		t.Fatalf("base-labelled drawn = %d, campaign drew %d", got, drawn)
	}

	c2, err := reg.StartCampaign("b", testKey(), adaptive.AlgoADDATP, 4242, true)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if mustPrep(t, c2.inst) != prep {
		t.Fatal("second base campaign got a new preparation")
	}
	if n := m.prepares.Value(); n != 1 {
		t.Fatalf("prepares = %d, want 1", n)
	}
}

// TestMutatedBatcherDonationIndependent: a base campaign checking out the
// warm batcher a closed, mutated campaign returned finishes exactly like
// the same campaign on a fresh registry — a batcher's history on another
// topology does not reach the next campaign's results.
func TestMutatedBatcherDonationIndependent(t *testing.T) {
	reg := NewRegistry(testSpec(), 0)
	c, err := reg.StartCampaign("m", testKey(), adaptive.AlgoADDATP, 31, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 2; i++ {
		if _, stop, _, err := c.Step(); err != nil || stop {
			t.Fatalf("round %d: stop=%v err=%v", i, stop, err)
		}
		if _, err := c.Mutate(nil, nil, 5, i); err != nil {
			t.Fatal(err)
		}
	}
	driveCampaign(t, c)
	donated := c.batcher
	c.Close()

	warm, err := reg.StartCampaign("w", testKey(), adaptive.AlgoADDATP, 4242, true)
	if err != nil {
		t.Fatal(err)
	}
	if warm.batcher != donated {
		t.Fatal("base campaign did not check out the mutated campaign's batcher")
	}
	got := driveCampaign(t, warm)
	warm.Close()

	fresh, err := NewRegistry(testSpec(), 0).StartCampaign("w", testKey(), adaptive.AlgoADDATP, 4242, true)
	if err != nil {
		t.Fatal(err)
	}
	want := driveCampaign(t, fresh)
	fresh.Close()
	sameOutcome(t, got, want, "donated-by-mutated vs fresh registry")
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
// the base instance into the session's own graph.
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
	if g := restored.sess.Instance().G; g.Epoch() != 1 {
		t.Fatalf("restored session graph at epoch %d, want 1", g.Epoch())
	}
	if restored.inst.Key != testKey() {
		t.Fatalf("restored campaign holds instance %v, want the base", restored.inst.Key)
	}
	got := driveCampaign(t, restored)
	restored.Close()
	sameOutcome(t, got, want, "restored-mutated vs straight-through")
}

// TestMutatedCampaignModeChangeOverHTTP: an insert whose probability
// differs from its target's shared one demotes the campaign's graph to
// per-edge storage on both sides. A campaign stepped once and mutated
// that way over HTTP, then checkpointed, closed, restored and finished
// must end with the seeds, spread and RR counts of a twin mutated the
// same way and run straight through: the replay rebuilds the mixed graph
// from the compressed base, and the rounds after it draw RR sets and
// sample the world on that graph.
func TestMutatedCampaignModeChangeOverHTTP(t *testing.T) {
	dir := t.TempDir()
	srv := NewServer(NewRegistry(testSpec(), 0), dir)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Node 1's in-edges share 1/indeg(1), which 0.37 is not for any
	// in-degree, and a self-loop-free insert is always valid.
	mixed := map[string]any{"inserts": []graph.Edge{{From: 0, To: 1, P: 0.37}}}
	mutated := func() string {
		var st Status
		call(t, ts, http.MethodPost, "/v1/campaigns", map[string]any{"algo": adaptive.AlgoADDATP, "seed": 9}, http.StatusCreated, &st)
		var step stepResponse
		call(t, ts, http.MethodPost, "/v1/campaigns/"+st.ID+"/step", nil, http.StatusOK, &step)
		if step.Stop {
			t.Fatal("campaign stopped on round 1")
		}
		call(t, ts, http.MethodPost, "/v1/campaigns/"+st.ID+"/mutate", mixed, http.StatusOK, nil)
		srv.mu.Lock()
		g := srv.campaigns[st.ID].sess.Instance().G
		srv.mu.Unlock()
		if g.InUniform() {
			t.Fatal("the mixed-probability insert left the graph compressed")
		}
		return st.ID
	}
	result := func(id string) *adaptive.RunResult {
		stepToDone(t, ts, id)
		var res adaptive.RunResult
		call(t, ts, http.MethodGet, "/v1/campaigns/"+id+"/result", nil, http.StatusOK, &res)
		return &res
	}

	want := result(mutated())
	if len(want.Seeds) < 3 {
		t.Fatalf("degenerate campaign: %d seeds, so no round follows the restore on the mixed graph", len(want.Seeds))
	}

	cut := mutated()
	var ck map[string]string
	call(t, ts, http.MethodPost, "/v1/campaigns/"+cut+"/checkpoint", nil, http.StatusOK, &ck)
	call(t, ts, http.MethodDelete, "/v1/campaigns/"+cut, nil, http.StatusOK, nil)
	var st Status
	call(t, ts, http.MethodPost, "/v1/campaigns/restore", map[string]string{"file": ck["file"]}, http.StatusCreated, &st)
	if st.ID != cut || st.Key.Epoch != 1 {
		t.Fatalf("restored campaign %s at epoch %d, want %s at 1", st.ID, st.Key.Epoch, cut)
	}
	sameOutcome(t, result(cut), want, "restored mode-changed campaign vs straight-through")
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
