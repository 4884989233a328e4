package service

import (
	"math"

	"repro/internal/fault"
	"repro/internal/obs"
)

// Metrics is the serving stack's instrumentation bundle: every series the
// daemon exports at GET /metrics, registered once on an obs.Registry and
// pre-resolved into handles so the hot paths (campaign stepping, the
// traffic bridge) mutate plain atomics and never touch a label map.
//
// Catalog (name → meaning):
//
//	repro_http_requests_total{route,code}        requests served, by route pattern and status
//	repro_http_request_duration_seconds{route}   end-to-end handler latency
//	repro_http_inflight_steps                    campaign-advancing requests currently holding a step slot
//	repro_http_throttled_total                   requests answered 429 at the step semaphore
//	repro_campaign_step_duration_seconds         one campaign advance (next/observe/step), HTTP excluded
//	repro_campaigns{state}                       open campaigns by state (running|done|failed)
//	repro_registry_entries                       instance-registry entries (live + idle)
//	repro_registry_idle_entries                  entries with no live campaign reference
//	repro_registry_warm_batchers                 parked warm batchers across all instances
//	repro_registry_prepares_total                expensive sweep.Prepare runs (cache misses)
//	repro_registry_evictions_total               idle entries dropped by the LRU cap
//	repro_checkpoint_writes_total{outcome}       checkpoint writes (ok|error), retries collapsed
//	repro_checkpoint_write_retries_total         extra attempts absorbed by the write retry loop
//	repro_checkpoint_restores_total{outcome}     restores (ok|fallback|error)
//	repro_checkpoint_quarantines_total           corrupt checkpoints renamed aside
//	repro_fault_injections_total{site}           injected faults that fired (REPRO_FAULTS)
//	repro_rr_sets_drawn_total{instance}          RR sets generated, per instance key
//	repro_rr_sets_reused_total{instance}         RR sets kept by incremental sync
//	repro_rr_visits_total{instance}              node visits during RR draws
//	repro_rr_edge_touches_total{instance}        in-adjacency entries read during RR draws
type Metrics struct {
	Reg *obs.Registry

	httpRequests *obs.CounterVec
	httpLatency  *obs.HistogramVec
	inflight     *obs.Gauge
	throttled    *obs.Counter

	stepDur *obs.Histogram

	stRunning *obs.Gauge
	stDone    *obs.Gauge
	stFailed  *obs.Gauge

	regEntries *obs.Gauge
	regIdle    *obs.Gauge
	regWarm    *obs.Gauge
	prepares   *obs.Counter
	evictions  *obs.Counter

	ckptWriteOK     *obs.Counter
	ckptWriteErr    *obs.Counter
	ckptRetries     *obs.Counter
	restoreOK       *obs.Counter
	restoreFallback *obs.Counter
	restoreErr      *obs.Counter
	quarantines     *obs.Counter

	faultHits *obs.CounterVec

	rrDrawn   *obs.CounterVec
	rrReused  *obs.CounterVec
	rrVisits  *obs.CounterVec
	rrTouches *obs.CounterVec
}

// NewMetrics registers the full serving catalog on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	m := &Metrics{Reg: reg}
	m.httpRequests = reg.CounterVec("repro_http_requests_total",
		"HTTP requests served, by route pattern and status code.", "route", "code")
	m.httpLatency = reg.HistogramVec("repro_http_request_duration_seconds",
		"End-to-end HTTP handler latency in seconds, by route pattern.", nil, "route")
	m.inflight = reg.Gauge("repro_http_inflight_steps",
		"Campaign-advancing requests currently holding a step-semaphore slot.")
	m.throttled = reg.Counter("repro_http_throttled_total",
		"Requests answered 429 because the step semaphore was saturated.")
	m.stepDur = reg.Histogram("repro_campaign_step_duration_seconds",
		"Duration of one campaign advance (next, observe, or simulated step), HTTP overhead excluded.", nil)
	states := reg.GaugeVec("repro_campaigns", "Open campaigns by state.", "state")
	m.stRunning = states.With("running")
	m.stDone = states.With("done")
	m.stFailed = states.With("failed")
	m.regEntries = reg.Gauge("repro_registry_entries",
		"Instance-registry entries, live and idle.")
	m.regIdle = reg.Gauge("repro_registry_idle_entries",
		"Registry entries with no live campaign reference (the population the LRU cap bounds).")
	m.regWarm = reg.Gauge("repro_registry_warm_batchers",
		"Warm RR batchers parked across all registry instances.")
	m.prepares = reg.Counter("repro_registry_prepares_total",
		"Expensive instance preparations executed (registry cache misses).")
	m.evictions = reg.Counter("repro_registry_evictions_total",
		"Idle instances dropped by the registry LRU cap.")
	writes := reg.CounterVec("repro_checkpoint_writes_total",
		"Campaign checkpoint writes by outcome; a retried write counts once.", "outcome")
	m.ckptWriteOK = writes.With("ok")
	m.ckptWriteErr = writes.With("error")
	m.ckptRetries = reg.Counter("repro_checkpoint_write_retries_total",
		"Extra checkpoint write attempts absorbed by the retry loop.")
	restores := reg.CounterVec("repro_checkpoint_restores_total",
		"Campaign restores by outcome: ok (requested file), fallback (older generation), error.", "outcome")
	m.restoreOK = restores.With("ok")
	m.restoreFallback = restores.With("fallback")
	m.restoreErr = restores.With("error")
	m.quarantines = reg.Counter("repro_checkpoint_quarantines_total",
		"Corrupt checkpoint files quarantined aside during restore.")
	m.faultHits = reg.CounterVec("repro_fault_injections_total",
		"Injected faults that fired, by site (REPRO_FAULTS plane).", "site")
	m.rrDrawn = reg.CounterVec("repro_rr_sets_drawn_total",
		"RR sets generated by campaigns, per instance key.", "instance")
	m.rrReused = reg.CounterVec("repro_rr_sets_reused_total",
		"RR sets kept by incremental sync (per round; per attempt under the fixed policy), per instance key.", "instance")
	m.rrVisits = reg.CounterVec("repro_rr_visits_total",
		"Node visits during RR set draws, per instance key.", "instance")
	m.rrTouches = reg.CounterVec("repro_rr_edge_touches_total",
		"In-adjacency entries read during RR set draws, per instance key.", "instance")
	return m
}

// trafficCounters are one campaign's pre-resolved sampler-traffic
// handles, keyed by the registry instance it holds. Resolved once at
// campaign open so the per-step bridge is four atomic adds.
type trafficCounters struct {
	drawn, reused, visits, touches *obs.Counter
}

func (m *Metrics) trafficFor(key Key) trafficCounters {
	k := key.String()
	return trafficCounters{
		drawn:   m.rrDrawn.With(k),
		reused:  m.rrReused.With(k),
		visits:  m.rrVisits.With(k),
		touches: m.rrTouches.With(k),
	}
}

// retryAfterSeconds derives the 429 backpressure hint from observed step
// latency: the conservative p50 bucket bound rounded up to whole
// seconds, clamped to >= 1 — a saturated server whose steps take ~4s
// tells clients to come back in 5, not 1.
func (m *Metrics) retryAfterSeconds() int {
	if m == nil {
		return 1
	}
	s := int(math.Ceil(m.stepDur.Quantile(0.5)))
	if s < 1 {
		s = 1
	}
	return s
}

// AttachMetrics wires the registry — and every instance and campaign it
// opens from now on — to m: registry gauges snapshot at scrape time, the
// fault plane reports fired injections, prepares and evictions count.
// Call once, before serving; campaigns opened earlier stay uninstrumented.
func (r *Registry) AttachMetrics(m *Metrics) {
	r.metrics = m
	m.Reg.OnGather(func() { r.gather(m) })
	fault.SetObserver(func(site string) { m.faultHits.With(site).Inc() })
}

// Metrics returns the attached bundle, nil if none.
func (r *Registry) Metrics() *Metrics { return r.metrics }

// gather snapshots registry occupancy into the gauges at scrape time.
func (r *Registry) gather(m *Metrics) {
	r.mu.Lock()
	entries := make([]*Instance, 0, len(r.entries))
	idle := 0
	for _, e := range r.entries {
		entries = append(entries, e)
		if e.refs == 0 {
			idle++
		}
	}
	r.mu.Unlock()
	warm := 0
	for _, e := range entries {
		e.bmu.Lock()
		warm += len(e.batchers)
		e.bmu.Unlock()
	}
	m.regEntries.Set(int64(len(entries)))
	m.regIdle.Set(int64(idle))
	m.regWarm.Set(int64(warm))
}
