package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
)

// Server exposes campaign lifecycle over HTTP (see routes in Handler).
// It is the state `repro serve` holds between requests: the instance
// registry plus the open-campaign table.
type Server struct {
	reg     *Registry
	ckptDir string

	// stepSem bounds concurrently executing campaign-advancing requests
	// (step/next/observe/mutate); an overloaded server answers 429 with
	// Retry-After instead of queueing unboundedly.
	stepSem chan struct{}
	// drainTimeout bounds Drain end to end; each campaign gets an equal
	// share of whatever budget remains when its turn comes.
	drainTimeout time.Duration
	logW         io.Writer

	// metrics is never nil: NewServer attaches a bundle to the registry
	// if none is there yet. reqID numbers requests for the access log.
	metrics *Metrics
	reqID   atomic.Int64

	mu        sync.Mutex
	campaigns map[string]*Campaign
	nextID    int
	// draining is set once, by Drain under mu; it is read under mu where
	// a campaign joins the map, and lock-free by the restore replay's
	// poll (drainStop).
	draining atomic.Bool
}

// NewServer builds a server around an instance registry. ckptDir, when
// non-empty, is where campaign checkpoints land — explicit checkpoint
// requests and the Drain sweep both write there.
func NewServer(reg *Registry, ckptDir string) *Server {
	m := reg.Metrics()
	if m == nil {
		m = NewMetrics(obs.NewRegistry())
		reg.AttachMetrics(m)
	}
	s := &Server{
		reg: reg, ckptDir: ckptDir, campaigns: make(map[string]*Campaign),
		stepSem:      make(chan struct{}, 2*runtime.GOMAXPROCS(0)),
		drainTimeout: 30 * time.Second,
		metrics:      m,
	}
	m.Reg.OnGather(s.gatherCampaigns)
	return s
}

// Registry returns the server's instance registry.
func (s *Server) Registry() *Registry { return s.reg }

// Metrics returns the server's instrumentation bundle (never nil).
func (s *Server) Metrics() *Metrics { return s.metrics }

// gatherCampaigns snapshots open-campaign states into the gauges at
// scrape time. It reads each campaign's lock-free state word, never its
// mutex — a scrape must not block behind a campaign wedged mid-step.
func (s *Server) gatherCampaigns() {
	var running, done, failed int64
	s.mu.Lock()
	for _, c := range s.campaigns {
		switch c.state.Load() {
		case campaignFailed:
			failed++
		case campaignDone:
			done++
		default:
			running++
		}
	}
	s.mu.Unlock()
	s.metrics.stRunning.Set(running)
	s.metrics.stDone.Set(done)
	s.metrics.stFailed.Set(failed)
}

// SetMaxConcurrentSteps caps in-flight campaign-advancing requests
// (default 2×GOMAXPROCS). Call before serving.
func (s *Server) SetMaxConcurrentSteps(n int) {
	if n < 1 {
		n = 1
	}
	s.stepSem = make(chan struct{}, n)
}

// SetDrainTimeout bounds the whole Drain sweep (default 30s). Call
// before serving.
func (s *Server) SetDrainTimeout(d time.Duration) {
	if d > 0 {
		s.drainTimeout = d
	}
}

// SetLogOutput directs server diagnostics (recovered panics, drain
// stragglers) to w. Nil discards them (the default).
func (s *Server) SetLogOutput(w io.Writer) { s.logW = w }

func (s *Server) logf(format string, args ...any) {
	if s.logW != nil {
		fmt.Fprintf(s.logW, format+"\n", args...)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// Handler returns the route table. Method+wildcard patterns need the
// Go 1.22 ServeMux. Every route is instrumented with request counts and
// a latency histogram labeled by the route pattern (bounded cardinality,
// unlike raw paths), and /metrics exposes the whole catalog.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, s.instrument(pattern, h))
	}
	route("GET /healthz", s.handleHealth)
	route("GET /metrics", s.metrics.Reg.Handler().ServeHTTP)
	route("GET /v1/instances", s.handleInstances)
	route("POST /v1/campaigns", s.handleCreate)
	route("GET /v1/campaigns", s.handleList)
	route("POST /v1/campaigns/restore", s.handleRestore)
	route("GET /v1/campaigns/{id}", s.handleStatus)
	route("GET /v1/campaigns/{id}/result", s.handleResult)
	route("POST /v1/campaigns/{id}/next", s.handleNext)
	route("POST /v1/campaigns/{id}/observe", s.handleObserve)
	route("POST /v1/campaigns/{id}/step", s.handleStep)
	route("POST /v1/campaigns/{id}/mutate", s.handleMutate)
	route("POST /v1/campaigns/{id}/checkpoint", s.handleCheckpoint)
	route("DELETE /v1/campaigns/{id}", s.handleDelete)
	return s.withRecovery(mux)
}

// statusWriter captures the status code and body size a handler writes.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// instrument wraps one route with metrics (requests by status, latency
// by route pattern) and a request-ID access log line. The histogram
// handle is resolved once per route at registration.
func (s *Server) instrument(pattern string, h http.Handler) http.Handler {
	hist := s.metrics.httpLatency.With(pattern)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := s.reqID.Add(1)
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		defer func() {
			d := time.Since(start)
			hist.Observe(d.Seconds())
			s.metrics.httpRequests.With(pattern, strconv.Itoa(sw.code)).Inc()
			if s.logW != nil {
				s.logf("access req=%d method=%s route=%q path=%s status=%d bytes=%d dur_ms=%.3f",
					id, r.Method, pattern, r.URL.Path, sw.code, sw.bytes,
					float64(d.Microseconds())/1000)
			}
		}()
		h.ServeHTTP(sw, r)
	})
}

// withRecovery is the daemon's outermost blast-radius boundary: a panic
// that escapes a handler (campaign-level guards catch the common case)
// becomes a logged 500 on that one request, never a dead server.
func (s *Server) withRecovery(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.logf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
				// Best effort: if the handler already wrote headers this
				// write fails silently, and the client sees a torn reply.
				writeErr(w, http.StatusInternalServerError,
					fmt.Errorf("service: internal panic serving %s %s", r.Method, r.URL.Path))
			}
		}()
		h.ServeHTTP(w, r)
	})
}

// acquireStep claims a slot for a campaign-advancing request. When the
// server is saturated it answers 429 + Retry-After itself and returns
// false — backpressure instead of an unbounded goroutine pile-up.
func (s *Server) acquireStep(w http.ResponseWriter) bool {
	select {
	case s.stepSem <- struct{}{}:
		s.metrics.inflight.Inc()
		return true
	default:
		s.metrics.throttled.Inc()
		// The hint tracks observed load: p50 step latency rounded up to
		// whole seconds (≥ 1), so clients of a saturated server back off
		// for about one queue drain instead of a blind second.
		w.Header().Set("Retry-After", strconv.Itoa(s.metrics.retryAfterSeconds()))
		writeErr(w, http.StatusTooManyRequests,
			fmt.Errorf("service: %d campaign steps already in flight; retry shortly", cap(s.stepSem)))
		return false
	}
}

func (s *Server) releaseStep() {
	<-s.stepSem
	s.metrics.inflight.Dec()
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	n := len(s.campaigns)
	draining := s.draining.Load()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "campaigns": n, "draining": draining})
}

func (s *Server) handleInstances(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.Stats())
}

// createRequest is the POST /v1/campaigns body. Omitted fields fall back
// to the server spec's first grid value (the same defaults `repro run`
// applies), simulate defaults to true, and scale to the spec's.
type createRequest struct {
	Dataset  string   `json:"dataset"`
	Model    string   `json:"model"`
	Cost     string   `json:"cost"`
	Scale    *float64 `json:"scale"`
	Algo     string   `json:"algo"`
	Seed     *uint64  `json:"seed"`
	Simulate *bool    `json:"simulate"`
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req createRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("service: bad request body: %w", err))
		return
	}
	spec := s.reg.Spec()
	if req.Dataset == "" {
		req.Dataset = spec.Datasets[0]
	}
	if req.Model == "" {
		req.Model = spec.Models[0]
	}
	if req.Cost == "" {
		req.Cost = spec.CostSettings[0]
	}
	if req.Algo == "" {
		req.Algo = spec.Algos[0]
	}
	key := Key{Dataset: req.Dataset, Model: req.Model, Cost: req.Cost, Scale: spec.Scale}
	if req.Scale != nil {
		key.Scale = *req.Scale
	}
	seed := spec.Seed + 100 // repro run realization-0 parity by default
	if req.Seed != nil {
		seed = *req.Seed
	}
	simulate := true
	if req.Simulate != nil {
		simulate = *req.Simulate
	}

	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		writeErr(w, http.StatusServiceUnavailable, errServerDraining)
		return
	}
	s.nextID++
	id := "c" + strconv.Itoa(s.nextID)
	s.mu.Unlock()

	c, err := s.reg.StartCampaign(id, key, req.Algo, seed, simulate)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	s.campaigns[id] = c
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, c.Status())
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	out := make([]Status, 0, len(s.campaigns))
	for _, c := range s.campaigns {
		out = append(out, c.Status())
	}
	s.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) campaign(w http.ResponseWriter, r *http.Request) *Campaign {
	id := r.PathValue("id")
	s.mu.Lock()
	c := s.campaigns[id]
	s.mu.Unlock()
	if c == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("service: no campaign %q", id))
	}
	return c
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if c := s.campaign(w, r); c != nil {
		writeJSON(w, http.StatusOK, c.Status())
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	if c := s.campaign(w, r); c != nil {
		writeJSON(w, http.StatusOK, c.Result())
	}
}

type nextResponse struct {
	Seed *graph.NodeID `json:"seed"` // null when the campaign stopped
	Stop bool          `json:"stop"`
}

func (s *Server) handleNext(w http.ResponseWriter, r *http.Request) {
	c := s.campaign(w, r)
	if c == nil {
		return
	}
	if c.Simulate {
		writeErr(w, http.StatusConflict, fmt.Errorf("service: campaign %s is simulated; use step", c.ID))
		return
	}
	if !s.acquireStep(w) {
		return
	}
	defer s.releaseStep()
	u, stop, err := c.Next()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	resp := nextResponse{Stop: stop}
	if !stop {
		resp.Seed = &u
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	c := s.campaign(w, r)
	if c == nil {
		return
	}
	if c.Simulate {
		writeErr(w, http.StatusConflict, fmt.Errorf("service: campaign %s is simulated; use step", c.ID))
		return
	}
	var body struct {
		Activated []graph.NodeID `json:"activated"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("service: bad request body: %w", err))
		return
	}
	if !s.acquireStep(w) {
		return
	}
	defer s.releaseStep()
	if err := c.Observe(body.Activated); err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, c.Status())
}

type stepResponse struct {
	Seed      *graph.NodeID  `json:"seed"` // null when the campaign stopped
	Stop      bool           `json:"stop"`
	Activated []graph.NodeID `json:"activated,omitempty"`
	Rounds    int            `json:"rounds"`
	Spread    int            `json:"spread"`
}

func (s *Server) handleStep(w http.ResponseWriter, r *http.Request) {
	c := s.campaign(w, r)
	if c == nil {
		return
	}
	if !s.acquireStep(w) {
		return
	}
	defer s.releaseStep()
	u, stop, activated, err := c.Step()
	if err != nil {
		if c.Simulate {
			writeErr(w, http.StatusInternalServerError, err)
		} else {
			writeErr(w, http.StatusConflict, err)
		}
		return
	}
	st := c.Status()
	resp := stepResponse{Stop: stop, Activated: activated, Rounds: st.Rounds, Spread: st.Spread}
	if !stop {
		resp.Seed = &u
	}
	writeJSON(w, http.StatusOK, resp)
}

// mutateRequest is the POST /v1/campaigns/{id}/mutate body: explicit
// edge lists, or a generated churn delta (churn_pct percent of the
// current edges, deterministic in churn_seed).
type mutateRequest struct {
	Inserts   []graph.Edge `json:"inserts,omitempty"`
	Deletes   []graph.Edge `json:"deletes,omitempty"`
	ChurnPct  float64      `json:"churn_pct,omitempty"`
	ChurnSeed uint64       `json:"churn_seed,omitempty"`
}

func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	c := s.campaign(w, r)
	if c == nil {
		return
	}
	var req mutateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("service: bad request body: %w", err))
		return
	}
	if !s.acquireStep(w) {
		return
	}
	defer s.releaseStep()
	info, err := c.Mutate(req.Inserts, req.Deletes, req.ChurnPct, req.ChurnSeed)
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	c := s.campaign(w, r)
	if c == nil {
		return
	}
	if s.ckptDir == "" {
		writeErr(w, http.StatusConflict, fmt.Errorf("service: server started without --checkpoint-dir"))
		return
	}
	file, err := c.Checkpoint(s.ckptDir)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"file": file})
}

func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	var body struct {
		File string `json:"file"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil || body.File == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("service: restore needs {\"file\": ...}"))
		return
	}
	file := body.File
	if !filepath.IsAbs(file) && s.ckptDir != "" {
		file = filepath.Join(s.ckptDir, file)
	}
	c, info, err := s.reg.restoreCampaign(file, s.drainStop)
	switch {
	case errors.Is(err, errServerDraining):
		writeErr(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		c.Close()
		writeErr(w, http.StatusServiceUnavailable, errServerDraining)
		return
	}
	if _, exists := s.campaigns[c.ID]; exists {
		s.mu.Unlock()
		c.Close()
		writeErr(w, http.StatusConflict, fmt.Errorf("service: campaign %s is already open", c.ID))
		return
	}
	s.campaigns[c.ID] = c
	// Keep fresh IDs ahead of restored ones ("c<n>" pattern only).
	if len(c.ID) > 1 && c.ID[0] == 'c' {
		if n, err := strconv.Atoi(c.ID[1:]); err == nil && n > s.nextID {
			s.nextID = n
		}
	}
	s.mu.Unlock()
	// Flatten Status and RestoreInfo into one object: clients keep
	// decoding the usual Status fields, plus restored_from/quarantined.
	writeJSON(w, http.StatusCreated, struct {
		Status
		*RestoreInfo
	}{c.Status(), info})
}

// errServerDraining ends a restore whose replay a Drain overtook.
var errServerDraining = errors.New("service: server is draining")

// drainStop is the poll a restore's replay runs under: a Drain cuts the
// replay short within a stride of RR draws, so a blob asking for more
// work than the shutdown allows ends with errServerDraining.
func (s *Server) drainStop() error {
	if s.draining.Load() {
		return errServerDraining
	}
	return nil
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	c := s.campaigns[id]
	delete(s.campaigns, id)
	s.mu.Unlock()
	if c == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("service: no campaign %q", id))
		return
	}
	c.Close()
	writeJSON(w, http.StatusOK, map[string]string{"closed": id})
}

// Drain checkpoints every open campaign (when a checkpoint directory is
// configured) and closes them all, refusing new work from that point on.
// `repro serve` calls it on SIGTERM so an in-flight campaign survives a
// restart: the client restores from the drain checkpoint and continues
// bit-identically. Returns the checkpointed files and the first error.
//
// The sweep is time-bounded (SetDrainTimeout): each campaign gets an
// equal share of the remaining budget, so one wedged campaign — stuck
// mid-step holding its mutex — delays but never blocks the shutdown of
// the rest. A campaign that misses its deadline is logged and abandoned
// (its goroutine finishes or dies with the process; the last durable
// checkpoint on disk is what survives either way).
func (s *Server) Drain() ([]string, error) {
	s.mu.Lock()
	s.draining.Store(true)
	open := make([]*Campaign, 0, len(s.campaigns))
	for _, c := range s.campaigns {
		open = append(open, c)
	}
	s.campaigns = make(map[string]*Campaign)
	s.mu.Unlock()
	sort.Slice(open, func(a, b int) bool { return open[a].ID < open[b].ID })

	deadline := time.Now().Add(s.drainTimeout)
	var files []string
	var firstErr error
	keep := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	for i, c := range open {
		// Fair share of what's left: a fast campaign donates its leftover
		// budget to the ones behind it.
		budget := time.Until(deadline) / time.Duration(len(open)-i)
		if budget <= 0 {
			keep(fmt.Errorf("service: drain deadline exhausted before campaign %s", c.ID))
			s.logf("drain: deadline exhausted; campaign %s not checkpointed", c.ID)
			continue
		}
		type outcome struct {
			file string
			err  error
		}
		done := make(chan outcome, 1)
		go func(c *Campaign) {
			var o outcome
			if s.ckptDir != "" && !c.Failed() {
				o.file, o.err = c.Checkpoint(s.ckptDir)
			}
			c.Close()
			done <- o
		}(c)
		select {
		case o := <-done:
			switch {
			case o.err != nil:
				keep(fmt.Errorf("service: drain checkpoint of %s: %w", c.ID, o.err))
				s.logf("drain: campaign %s failed to checkpoint: %v", c.ID, o.err)
			case o.file != "":
				files = append(files, o.file)
			}
		case <-time.After(budget):
			keep(fmt.Errorf("service: drain of %s exceeded its %v deadline", c.ID, budget.Round(time.Millisecond)))
			s.logf("drain: campaign %s wedged (deadline %v); abandoning it", c.ID, budget.Round(time.Millisecond))
		}
	}
	return files, firstErr
}
