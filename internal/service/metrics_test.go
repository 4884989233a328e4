package service

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/adaptive"
	"repro/internal/fault"
	"repro/internal/obs"
)

// scrape fetches /metrics from the test server and returns the body.
func scrape(t testing.TB, ts *httptest.Server) string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics content type %q, want text format 0.0.4", ct)
	}
	return string(body)
}

// TestMetricsEndToEnd drives a campaign through the HTTP API and checks
// that every series family the catalog promises shows up on /metrics
// with plausible values.
func TestMetricsEndToEnd(t *testing.T) {
	reg := NewRegistry(testSpec(), 0)
	srv := NewServer(reg, t.TempDir())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var st Status
	call(t, ts, http.MethodPost, "/v1/campaigns", nil, http.StatusCreated, &st)
	call(t, ts, http.MethodPost, "/v1/campaigns/"+st.ID+"/checkpoint", nil, http.StatusOK, nil)
	stepToDone(t, ts, st.ID)

	out := scrape(t, ts)
	instance := testKey().String()
	for _, want := range []string{
		// Request accounting, labeled by route pattern and status.
		`repro_http_requests_total{route="POST /v1/campaigns",code="201"} 1`,
		`repro_http_request_duration_seconds_count{route="POST /v1/campaigns/{id}/step"}`,
		// Step latency histogram with at least one observation.
		"# TYPE repro_campaign_step_duration_seconds histogram",
		// Registry occupancy and preparation counters.
		"repro_registry_entries 1",
		"repro_registry_prepares_total 1",
		// Campaign states: the single campaign finished.
		`repro_campaigns{state="done"} 1`,
		`repro_campaigns{state="running"} 0`,
		// Checkpoint write outcome.
		`repro_checkpoint_writes_total{outcome="ok"} 1`,
		// Sampler traffic bridged per instance key.
		fmt.Sprintf("repro_rr_sets_drawn_total{instance=%q}", instance),
		fmt.Sprintf("repro_rr_visits_total{instance=%q}", instance),
		fmt.Sprintf("repro_rr_edge_touches_total{instance=%q}", instance),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full scrape:\n%s", out)
	}

	if c := srv.metrics.stepDur.Count(); c < 2 {
		t.Errorf("step-duration histogram has %d observations, want >= 2", c)
	}
	drawn := srv.metrics.rrDrawn.With(instance).Value()
	if drawn <= 0 {
		t.Errorf("rr_sets_drawn_total = %d, want > 0 after a full campaign", drawn)
	}
}

// TestScrapeWhileStepping scrapes /metrics concurrently with stepping
// campaigns (run under -race in CI): no data race, and every scrape
// stays well-formed enough to carry the step histogram.
func TestScrapeWhileStepping(t *testing.T) {
	reg := NewRegistry(testSpec(), 0)
	srv := NewServer(reg, "")
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const workers = 3
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var st Status
			call(t, ts, http.MethodPost, "/v1/campaigns",
				map[string]any{"seed": 1000 + w}, http.StatusCreated, &st)
			stepToDone(t, ts, st.ID)
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	scrapes := 0
	for {
		select {
		case <-done:
			if scrapes == 0 {
				t.Fatal("campaigns finished before a single concurrent scrape")
			}
			out := scrape(t, ts) // one more after the dust settles
			if !strings.Contains(out, "repro_campaign_step_duration_seconds_count") {
				t.Fatalf("final scrape missing step histogram:\n%s", out)
			}
			return
		default:
			_ = scrape(t, ts)
			scrapes++
		}
	}
}

// TestRetryAfterHintTracksStepLatency covers the 429 backpressure
// bugfix: the hint follows the observed p50 step latency instead of a
// hardcoded 1, and clamps to >= 1s when steps are fast or unobserved.
func TestRetryAfterHintTracksStepLatency(t *testing.T) {
	m := NewMetrics(obs.NewRegistry())
	if got := m.retryAfterSeconds(); got != 1 {
		t.Errorf("no observations: hint = %d, want clamp to 1", got)
	}
	for i := 0; i < 10; i++ {
		m.stepDur.Observe(0.002) // fast steps: sub-second p50 clamps up to 1
	}
	if got := m.retryAfterSeconds(); got != 1 {
		t.Errorf("fast steps: hint = %d, want 1", got)
	}
	for i := 0; i < 100; i++ {
		m.stepDur.Observe(4.0) // slow steps dominate: p50 bucket bound is 5s
	}
	if got := m.retryAfterSeconds(); got != 5 {
		t.Errorf("slow steps: hint = %d, want 5 (ceil of the p50 bucket bound)", got)
	}
	var nilM *Metrics
	if got := nilM.retryAfterSeconds(); got != 1 {
		t.Errorf("nil metrics: hint = %d, want 1", got)
	}
}

// TestThrottledResponseCarriesDerivedRetryAfter saturates a 1-slot step
// semaphore and checks the 429 path: throttled counter moves and the
// Retry-After header is the derived hint.
func TestThrottledResponseCarriesDerivedRetryAfter(t *testing.T) {
	reg := NewRegistry(testSpec(), 0)
	srv := NewServer(reg, "")
	srv.SetMaxConcurrentSteps(1)
	srv.stepSem <- struct{}{} // wedge the only slot

	var st Status
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	call(t, ts, http.MethodPost, "/v1/campaigns", nil, http.StatusCreated, &st)

	resp, err := ts.Client().Post(ts.URL+"/v1/campaigns/"+st.ID+"/step", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After %q, want \"1\" (no slow steps observed yet)", got)
	}
	if got := srv.metrics.throttled.Value(); got != 1 {
		t.Fatalf("throttled counter = %d, want 1", got)
	}

	// After slow observed steps the same saturation advertises a longer
	// back-off.
	for i := 0; i < 10; i++ {
		srv.metrics.stepDur.Observe(4.0)
	}
	resp, err = ts.Client().Post(ts.URL+"/v1/campaigns/"+st.ID+"/step", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("Retry-After"); got != "5" {
		t.Fatalf("Retry-After %q after slow steps, want \"5\"", got)
	}
	<-srv.stepSem // unwedge so Close doesn't hang a goroutine
}

// TestRegistryKeepsIdleEntryUnderLiveLoad is the eviction-semantics
// regression test: with max live campaigns holding references, one
// just-released idle instance must stay warm — -max-instances caps the
// idle population, not the total entry count.
func TestRegistryKeepsIdleEntryUnderLiveLoad(t *testing.T) {
	const max = 2
	reg := NewRegistry(testSpec(), max)

	// max entries with live references.
	var live []*Instance
	for _, cost := range []string{"uniform", "random"} {
		inst, err := reg.Acquire(keyWithCost(cost))
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, inst)
	}
	// One more key, acquired and released: the lone idle entry.
	idle, err := reg.Acquire(keyWithCost("degree-proportional"))
	if err != nil {
		t.Fatal(err)
	}
	idle.Release()

	stats := reg.Stats()
	if len(stats) != max+1 {
		t.Fatalf("got %d entries, want %d (max live + 1 idle kept warm)", len(stats), max+1)
	}
	found := false
	for _, s := range stats {
		if s.Key.Cost == "degree-proportional" {
			found = true
			if s.Refs != 0 {
				t.Fatalf("idle entry has %d refs, want 0", s.Refs)
			}
		}
	}
	if !found {
		t.Fatal("idle instance was evicted while live refs filled the cap (the pre-fix behavior)")
	}
	for _, inst := range live {
		inst.Release()
	}
}

// TestEvictionCounterAndGauges checks the registry metrics: evictions
// count and the occupancy gauges refresh at scrape time.
func TestEvictionCounterAndGauges(t *testing.T) {
	reg := NewRegistry(testSpec(), 1)
	m := NewMetrics(obs.NewRegistry())
	reg.AttachMetrics(m)
	t.Cleanup(func() { fault.SetObserver(nil) })

	for _, cost := range []string{"uniform", "random", "degree-proportional"} {
		inst, err := reg.Acquire(keyWithCost(cost))
		if err != nil {
			t.Fatal(err)
		}
		inst.Release()
	}
	if got := m.evictions.Value(); got != 2 {
		t.Fatalf("evictions = %d, want 2 (three touches through a 1-idle cap)", got)
	}
	var b strings.Builder
	if err := m.Reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"repro_registry_entries 1",
		"repro_registry_idle_entries 1",
		"repro_registry_evictions_total 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q:\n%s", want, out)
		}
	}
}

// TestCampaignTrafficBridgeMatchesResult cross-checks the bridged
// counters against the campaign's own result accounting.
func TestCampaignTrafficBridgeMatchesResult(t *testing.T) {
	reg := NewRegistry(testSpec(), 0)
	m := NewMetrics(obs.NewRegistry())
	reg.AttachMetrics(m)
	t.Cleanup(func() { fault.SetObserver(nil) })

	c, err := reg.StartCampaign("t", testKey(), adaptive.AlgoADDATP, 4242, true)
	if err != nil {
		t.Fatal(err)
	}
	res := driveCampaign(t, c)
	c.Close()

	instance := testKey().String()
	if got, want := m.rrDrawn.With(instance).Value(), res.RRDrawn; got != want {
		t.Errorf("bridged drawn = %d, result says %d", got, want)
	}
	if got, want := m.rrReused.With(instance).Value(), res.RRReused; got != want {
		t.Errorf("bridged reused = %d, result says %d", got, want)
	}
	if m.rrVisits.With(instance).Value() <= 0 || m.rrTouches.With(instance).Value() <= 0 {
		t.Error("visit/edge-touch bridge stayed zero across a full campaign")
	}
}

// TestFixedPolicyCampaignTrafficBridge: a `--sampler fixed` campaign
// draws through the instance's warm batcher too, so its draws, visits
// and edge touches reach the bridged counters.
func TestFixedPolicyCampaignTrafficBridge(t *testing.T) {
	spec := testSpec()
	spec.Sampler = adaptive.PolicyFixed
	reg := NewRegistry(spec, 0)
	m := NewMetrics(obs.NewRegistry())
	reg.AttachMetrics(m)
	t.Cleanup(func() { fault.SetObserver(nil) })

	c, err := reg.StartCampaign("t", testKey(), adaptive.AlgoADDATP, 4242, true)
	if err != nil {
		t.Fatal(err)
	}
	res := driveCampaign(t, c)
	c.Close()

	if res.Sampler != adaptive.PolicyFixed || res.RRDrawn <= 0 {
		t.Fatalf("campaign ran sampler %q with %d draws, want fixed with > 0", res.Sampler, res.RRDrawn)
	}
	instance := testKey().String()
	if got := m.rrDrawn.With(instance).Value(); got != res.RRDrawn {
		t.Errorf("bridged drawn = %d, result says %d", got, res.RRDrawn)
	}
	if m.rrVisits.With(instance).Value() <= 0 || m.rrTouches.With(instance).Value() <= 0 {
		t.Error("visit/edge-touch bridge stayed zero across a fixed-policy campaign")
	}
}

// BenchmarkMetricsScrape times one /metrics exposition, served in process
// by the server's handler, after four campaigns on two instances have
// published request, step-latency and RR-traffic series.
func BenchmarkMetricsScrape(b *testing.B) {
	srv := NewServer(NewRegistry(testSpec(), 0), "")
	b.Cleanup(func() { fault.SetObserver(nil) })
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for i, cost := range []string{"uniform", "degree-proportional", "uniform", "degree-proportional"} {
		var st Status
		call(b, ts, http.MethodPost, "/v1/campaigns", map[string]any{"cost": cost, "seed": 1000 + i}, http.StatusCreated, &st)
		stepToDone(b, ts, st.ID)
	}
	if out := scrape(b, ts); !strings.Contains(out, "repro_rr_sets_drawn_total") {
		b.Fatalf("scrape without traffic series:\n%s", out)
	}
	h := srv.Handler()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	var size int
	b.ReportAllocs()
	for b.Loop() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("/metrics status %d", rec.Code)
		}
		size = rec.Body.Len()
	}
	b.ReportMetric(float64(size), "bytes/scrape")
}
