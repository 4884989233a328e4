package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/adaptive"
)

// call issues one JSON request against the test server and decodes the
// response into out (skipped when out is nil), failing unless the status
// matches.
func call(t testing.TB, ts *httptest.Server, method, path string, body any, wantStatus int, out any) {
	t.Helper()
	var buf io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		buf = bytes.NewReader(b)
	} else if method == http.MethodPost {
		buf = strings.NewReader("{}")
	}
	req, err := http.NewRequest(method, ts.URL+path, buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s: status %d (want %d): %s", method, path, resp.StatusCode, wantStatus, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: bad response %q: %v", method, path, raw, err)
		}
	}
}

// stepToDone drives a simulated campaign over HTTP until it stops.
func stepToDone(t testing.TB, ts *httptest.Server, id string) {
	t.Helper()
	for i := 0; ; i++ {
		if i > 10_000 {
			t.Fatal("campaign did not stop")
		}
		var step stepResponse
		call(t, ts, http.MethodPost, "/v1/campaigns/"+id+"/step", nil, http.StatusOK, &step)
		if step.Stop {
			return
		}
	}
}

func TestServerCampaignLifecycle(t *testing.T) {
	reg := NewRegistry(testSpec(), 0)
	srv := NewServer(reg, t.TempDir())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var health struct {
		OK        bool `json:"ok"`
		Campaigns int  `json:"campaigns"`
	}
	call(t, ts, http.MethodGet, "/healthz", nil, http.StatusOK, &health)
	if !health.OK || health.Campaigns != 0 {
		t.Fatalf("health = %+v", health)
	}

	// An empty create falls back to the server spec: first grid values,
	// seed spec.Seed+100, simulate on.
	var st Status
	call(t, ts, http.MethodPost, "/v1/campaigns", nil, http.StatusCreated, &st)
	if st.ID != "c1" || st.Key != testKey() || st.Algo != adaptive.AlgoADDATP || !st.Simulate {
		t.Fatalf("created %+v, want defaults for c1", st)
	}
	if st.Seed != testSpec().Seed+100 {
		t.Fatalf("default seed %d, want spec.Seed+100 = %d", st.Seed, testSpec().Seed+100)
	}

	// Mode gating: next/observe belong to external campaigns.
	call(t, ts, http.MethodPost, "/v1/campaigns/c1/next", nil, http.StatusConflict, nil)
	call(t, ts, http.MethodPost, "/v1/campaigns/c1/observe",
		map[string]any{"activated": []int{}}, http.StatusConflict, nil)
	call(t, ts, http.MethodGet, "/v1/campaigns/nope", nil, http.StatusNotFound, nil)

	stepToDone(t, ts, "c1")
	var want adaptive.RunResult
	call(t, ts, http.MethodGet, "/v1/campaigns/c1/result", nil, http.StatusOK, &want)
	if len(want.Seeds) == 0 || want.Rounds != len(want.Seeds) {
		t.Fatalf("result %+v, want a non-trivial finished run", want)
	}

	// Same request again: a second campaign on the now-warm instance must
	// reproduce the run exactly, checkpoint mid-flight, survive delete +
	// restore, and land on the identical result.
	call(t, ts, http.MethodPost, "/v1/campaigns", nil, http.StatusCreated, &st)
	if st.ID != "c2" {
		t.Fatalf("second campaign id %q, want c2", st.ID)
	}
	var step stepResponse
	call(t, ts, http.MethodPost, "/v1/campaigns/c2/step", nil, http.StatusOK, &step)
	if step.Stop {
		t.Fatal("campaign stopped on round 1; too short to checkpoint mid-flight")
	}
	var ck struct {
		File string `json:"file"`
	}
	call(t, ts, http.MethodPost, "/v1/campaigns/c2/checkpoint", nil, http.StatusOK, &ck)
	if _, err := os.Stat(ck.File); err != nil {
		t.Fatalf("checkpoint file: %v", err)
	}
	call(t, ts, http.MethodDelete, "/v1/campaigns/c2", nil, http.StatusOK, nil)
	call(t, ts, http.MethodGet, "/v1/campaigns/c2", nil, http.StatusNotFound, nil)

	// Restore accepts a bare filename relative to the checkpoint dir.
	call(t, ts, http.MethodPost, "/v1/campaigns/restore",
		map[string]string{"file": filepath.Base(ck.File)}, http.StatusCreated, &st)
	if st.ID != "c2" || st.Rounds != 1 {
		t.Fatalf("restored %+v, want c2 at round 1", st)
	}
	stepToDone(t, ts, "c2")
	var got adaptive.RunResult
	call(t, ts, http.MethodGet, "/v1/campaigns/c2/result", nil, http.StatusOK, &got)
	sameOutcome(t, &got, &want, "restored c2 vs uninterrupted c1")

	// The registry behind it all holds exactly one prepared instance.
	var infos []InstanceInfo
	call(t, ts, http.MethodGet, "/v1/instances", nil, http.StatusOK, &infos)
	if len(infos) != 1 || !infos[0].Prepared {
		t.Fatalf("instances = %+v, want one prepared entry", infos)
	}

	// A fresh create after the restore must not collide with c2's ID.
	call(t, ts, http.MethodPost, "/v1/campaigns", nil, http.StatusCreated, &st)
	if st.ID != "c3" {
		t.Fatalf("post-restore create got id %q, want c3", st.ID)
	}
}

func TestServerDrainCheckpointsOpenCampaigns(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry(testSpec(), 0)
	srv := NewServer(reg, dir)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var st Status
	call(t, ts, http.MethodPost, "/v1/campaigns", nil, http.StatusCreated, &st)
	var step stepResponse
	call(t, ts, http.MethodPost, "/v1/campaigns/"+st.ID+"/step", nil, http.StatusOK, &step)
	if step.Stop {
		t.Fatal("campaign stopped on round 1")
	}

	files, err := srv.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || filepath.Base(files[0]) != "campaign-"+st.ID+".ckpt" {
		t.Fatalf("drain files = %v", files)
	}
	call(t, ts, http.MethodPost, "/v1/campaigns", nil, http.StatusServiceUnavailable, nil)
	call(t, ts, http.MethodPost, "/v1/campaigns/restore",
		map[string]string{"file": files[0]}, http.StatusServiceUnavailable, nil)

	// A restarted server (fresh registry, same checkpoint dir) picks the
	// campaign back up and finishes it to the same outcome as a never-
	// interrupted run.
	reg2 := NewRegistry(testSpec(), 0)
	srv2 := NewServer(reg2, dir)
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	call(t, ts2, http.MethodPost, "/v1/campaigns/restore",
		map[string]string{"file": files[0]}, http.StatusCreated, &st)
	stepToDone(t, ts2, st.ID)
	var got adaptive.RunResult
	call(t, ts2, http.MethodGet, "/v1/campaigns/"+st.ID+"/result", nil, http.StatusOK, &got)

	ref, err := reg2.StartCampaign("ref", testKey(), st.Algo, st.Seed, true)
	if err != nil {
		t.Fatal(err)
	}
	want := driveCampaign(t, ref)
	ref.Close()
	sameOutcome(t, &got, want, "drain-restored vs uninterrupted")
}

// TestServerObserveOmittingSeed: an external-feedback client that
// reports no activations still activated the seed it was told to seed,
// so the campaign counts it and never proposes it again.
func TestServerObserveOmittingSeed(t *testing.T) {
	srv := NewServer(NewRegistry(testSpec(), 0), t.TempDir())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var st Status
	call(t, ts, http.MethodPost, "/v1/campaigns", map[string]any{"simulate": false}, http.StatusCreated, &st)
	var first, second nextResponse
	call(t, ts, http.MethodPost, "/v1/campaigns/"+st.ID+"/next", nil, http.StatusOK, &first)
	if first.Stop {
		t.Fatal("campaign stopped before its first seed")
	}
	call(t, ts, http.MethodPost, "/v1/campaigns/"+st.ID+"/observe",
		map[string]any{"activated": []int{}}, http.StatusOK, &st)
	if st.Spread != 1 || st.Rounds != 1 {
		t.Fatalf("after an empty observation: spread %d, rounds %d; want 1 and 1", st.Spread, st.Rounds)
	}
	call(t, ts, http.MethodPost, "/v1/campaigns/"+st.ID+"/next", nil, http.StatusOK, &second)
	if !second.Stop && *second.Seed == *first.Seed {
		t.Fatalf("seed %d proposed again after it was observed", *first.Seed)
	}
}

func TestServerCreateValidation(t *testing.T) {
	reg := NewRegistry(testSpec(), 0)
	srv := NewServer(reg, "")
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, body := range []map[string]any{
		{"dataset": "no-such-dataset"},
		{"model": "triangular"},
		{"cost": "free"},
		{"algo": "magic"},
		{"scale": -1},
	} {
		call(t, ts, http.MethodPost, "/v1/campaigns", body, http.StatusBadRequest, nil)
	}
	// Without --checkpoint-dir, checkpointing is a refusable request, not
	// a crash.
	var st Status
	call(t, ts, http.MethodPost, "/v1/campaigns", map[string]any{"algo": "all-targets"}, http.StatusCreated, &st)
	call(t, ts, http.MethodPost, "/v1/campaigns/"+st.ID+"/checkpoint", nil, http.StatusConflict, nil)
}

// TestInstancesReportFirstLook: GET /v1/instances sizes each prepared
// instance's shared first look — no sets before a campaign has stepped,
// then whole 64-set chunks and their bytes, matching the instance's own
// count.
func TestInstancesReportFirstLook(t *testing.T) {
	reg := NewRegistry(testSpec(), 0)
	ts := httptest.NewServer(NewServer(reg, t.TempDir()).Handler())
	defer ts.Close()

	var st Status
	call(t, ts, http.MethodPost, "/v1/campaigns", nil, http.StatusCreated, &st)
	var raw []map[string]any
	call(t, ts, http.MethodGet, "/v1/instances", nil, http.StatusOK, &raw)
	if len(raw) != 1 {
		t.Fatalf("instances = %+v, want one", raw)
	}
	if _, ok := raw[0]["first_look_bytes"]; raw[0]["first_look_sets"] != 0.0 || !ok {
		t.Fatalf("before the first step: %+v, want first_look_sets 0 and first_look_bytes", raw)
	}

	var step stepResponse
	call(t, ts, http.MethodPost, "/v1/campaigns/"+st.ID+"/step", nil, http.StatusOK, &step)
	var infos []InstanceInfo
	call(t, ts, http.MethodGet, "/v1/instances", nil, http.StatusOK, &infos)
	if len(infos) != 1 {
		t.Fatalf("instances = %+v, want one", infos)
	}
	got := infos[0]
	if got.FirstLookSets <= 0 || got.FirstLookSets%64 != 0 || got.FirstLookBytes <= 0 {
		t.Fatalf("after one step: %d first-look sets in %d bytes, want whole chunks", got.FirstLookSets, got.FirstLookBytes)
	}
	inst, err := reg.Acquire(testKey())
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Release()
	prep, err := inst.Prepared()
	if err != nil {
		t.Fatal(err)
	}
	if sets, bytes := prep.Inst.FirstLook(); sets != got.FirstLookSets || bytes != got.FirstLookBytes {
		t.Fatalf("reported %d sets, %d bytes; instance holds %d, %d", got.FirstLookSets, got.FirstLookBytes, sets, bytes)
	}
}
