package service

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/adaptive"
	"repro/internal/fault"
)

func withInjector(t *testing.T, inj *fault.Injector) {
	t.Helper()
	prev := fault.Enable(inj)
	t.Cleanup(func() { fault.Enable(prev) })
}

// TestServerStepPanicIsolatesCampaign panics the RR batcher mid-step and
// checks the blast radius: that one request answers 500, the campaign
// lands in the failed state with the stack captured, every later call on
// it gets a clean error — and a sibling campaign on the same server keeps
// stepping as if nothing happened.
func TestServerStepPanicIsolatesCampaign(t *testing.T) {
	reg := NewRegistry(testSpec(), 0)
	srv := NewServer(reg, "")
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var doomed, healthy Status
	call(t, ts, http.MethodPost, "/v1/campaigns", nil, http.StatusCreated, &doomed)
	call(t, ts, http.MethodPost, "/v1/campaigns", nil, http.StatusCreated, &healthy)

	// The first RR top-up anywhere panics; everything after runs clean.
	withInjector(t, fault.New(11, fault.Rule{Site: fault.SiteBatcherGrow, Mode: fault.ModePanic, Nth: 1}))

	var errResp struct {
		Error string `json:"error"`
	}
	call(t, ts, http.MethodPost, "/v1/campaigns/"+doomed.ID+"/step", nil, http.StatusInternalServerError, &errResp)
	if !strings.Contains(errResp.Error, "failed") || !strings.Contains(errResp.Error, "panic") {
		t.Fatalf("step error %q does not say the campaign failed from a panic", errResp.Error)
	}

	var st Status
	call(t, ts, http.MethodGet, "/v1/campaigns/"+doomed.ID, nil, http.StatusOK, &st)
	if st.State != "failed" || st.Error == "" {
		t.Fatalf("status after panic = %+v, want state failed with error", st)
	}
	if !strings.Contains(st.Stack, "fault") {
		t.Errorf("status stack does not show the panic site:\n%s", st.Stack)
	}
	// The failure is sticky and clean — no second panic, no half progress.
	call(t, ts, http.MethodPost, "/v1/campaigns/"+doomed.ID+"/step", nil, http.StatusInternalServerError, &errResp)
	if !strings.Contains(errResp.Error, "failed") {
		t.Fatalf("second step error = %q, want sticky failed", errResp.Error)
	}

	stepToDone(t, ts, healthy.ID)

	// The failed campaign can still be deleted; its resources come back.
	call(t, ts, http.MethodDelete, "/v1/campaigns/"+doomed.ID, nil, http.StatusOK, nil)
}

// TestHandlerPanicRecoveryMiddleware drives a panic that the campaign
// guard cannot catch (it fires in the handler itself) and checks the
// outer middleware turns it into a 500, not a dead server.
func TestHandlerPanicRecoveryMiddleware(t *testing.T) {
	srv := NewServer(NewRegistry(testSpec(), 0), "")
	mux := http.NewServeMux()
	mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) { panic("kaboom") })
	ts := httptest.NewServer(srv.withRecovery(mux))
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	// The server survived: the next request works.
	resp, err = ts.Client().Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("second request: status %d, want 500", resp.StatusCode)
	}
}

// TestServerOverloadReturns429 fills the step semaphore and checks the
// server sheds the next campaign-advancing request with 429 and a
// Retry-After hint instead of queueing it.
func TestServerOverloadReturns429(t *testing.T) {
	reg := NewRegistry(testSpec(), 0)
	srv := NewServer(reg, "")
	srv.SetMaxConcurrentSteps(1)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var c Status
	call(t, ts, http.MethodPost, "/v1/campaigns", nil, http.StatusCreated, &c)

	// Occupy the only slot as a wedged in-flight step would.
	srv.stepSem <- struct{}{}
	resp, err := ts.Client().Post(ts.URL+"/v1/campaigns/"+c.ID+"/step", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	<-srv.stepSem

	// With the slot free the same request goes through.
	call(t, ts, http.MethodPost, "/v1/campaigns/"+c.ID+"/step", nil, http.StatusOK, nil)
}

// TestDrainDeadline wedges one campaign (its mutex held by a stuck
// operation) and checks Drain still returns within its budget, reports
// the straggler, and checkpoints the healthy campaign behind it.
func TestDrainDeadline(t *testing.T) {
	reg := NewRegistry(testSpec(), 0)
	dir := t.TempDir()
	srv := NewServer(reg, dir)
	srv.SetDrainTimeout(400 * time.Millisecond)

	wedged, err := reg.StartCampaign("a-wedged", testKey(), adaptive.AlgoADDATP, 31, true)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := reg.StartCampaign("b-ok", testKey(), adaptive.AlgoADDATP, 31, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, stop, _, err := ok.Step(); err != nil || stop {
		t.Fatalf("step: stop=%v err=%v", stop, err)
	}
	srv.campaigns["a-wedged"] = wedged
	srv.campaigns["b-ok"] = ok

	wedged.mu.Lock() // a step stuck forever
	// Unwedge after Drain so the abandoned goroutine finishes (and stops
	// touching the temp dir) before the test cleans up.
	defer func() {
		wedged.mu.Unlock()
		deadline := time.Now().Add(5 * time.Second)
		for {
			wedged.mu.Lock()
			closed := wedged.closed
			wedged.mu.Unlock()
			if closed {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("abandoned drain goroutine never closed the wedged campaign")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	start := time.Now()
	files, err := srv.Drain()
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Drain took %v despite 400ms budget", elapsed)
	}
	if err == nil || !strings.Contains(err.Error(), "a-wedged") {
		t.Fatalf("Drain error = %v, want the wedged campaign reported", err)
	}
	if len(files) != 1 || !strings.Contains(files[0], "b-ok") {
		t.Fatalf("Drain files = %v, want exactly b-ok's checkpoint", files)
	}
	if _, _, err := reg.RestoreCampaign(files[0]); err != nil {
		t.Fatalf("drain checkpoint does not restore: %v", err)
	}
}

// TestVoidedSessionLatchesFailure injects a plain error (not a panic)
// into the batcher mid-step: the engine error voids the session, and the
// campaign must latch into failed rather than limp on a session that can
// no longer answer honestly.
func TestVoidedSessionLatchesFailure(t *testing.T) {
	reg := NewRegistry(testSpec(), 0)
	c, err := reg.StartCampaign("v", testKey(), adaptive.AlgoADDATP, 31, true)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	withInjector(t, fault.New(5, fault.Rule{Site: fault.SiteBatcherGrow, Mode: fault.ModeError, Nth: 1}))
	if _, _, _, err := c.Step(); err == nil {
		t.Fatal("step under injected batcher error succeeded")
	}
	if !c.Failed() {
		t.Fatal("campaign not failed after its session voided")
	}
	if st := c.Status(); st.State != "failed" || st.Error == "" {
		t.Fatalf("status = %+v, want failed with error", st)
	}
	if _, err := c.Checkpoint(t.TempDir()); err == nil {
		t.Fatal("checkpoint of a failed campaign succeeded; its state is not trustworthy")
	}
}

// TestRestoreReplayPanicFailsCleanly: a restore replays the campaign's
// steps, so a batcher panic during the replay must fail that restore
// with an error, hand back the instance reference and the batcher, and
// leave the checkpoint restorable once the fault clears.
func TestRestoreReplayPanicFailsCleanly(t *testing.T) {
	reg := NewRegistry(testSpec(), 0)
	ref, err := reg.StartCampaign("ref", testKey(), adaptive.AlgoADDATP, 31, true)
	if err != nil {
		t.Fatal(err)
	}
	want := driveCampaign(t, ref)
	ref.Close()

	c, err := reg.StartCampaign("p", testKey(), adaptive.AlgoADDATP, 31, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, _, _, err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	path, err := c.Checkpoint(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c.Close()

	withInjector(t, fault.New(3, fault.Rule{Site: fault.SiteBatcherGrow, Mode: fault.ModePanic, Every: 1}))
	if _, _, err := reg.RestoreCampaign(path); err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("restore under a replay panic: %v, want a panic error", err)
	}
	fault.Disable()
	stats := reg.Stats()
	if len(stats) != 1 || stats[0].Refs != 0 || stats[0].Warm != 1 {
		t.Fatalf("after the failed restore: %+v, want one entry with no refs and its batcher back", stats)
	}

	restored, _, err := reg.RestoreCampaign(path)
	if err != nil {
		t.Fatalf("restore after the fault cleared: %v", err)
	}
	got := driveCampaign(t, restored)
	restored.Close()
	sameOutcome(t, got, want, "restore after a failed replay")
}
