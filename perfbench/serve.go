package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adaptive"
	"repro/internal/cascade"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/service"
	"repro/internal/sweep"
)

// replaySample is how many of the HTTP campaigns the serve workload
// replays in-process through adaptive.Session.
const replaySample = 20

// server is one in-process `repro serve` stack on a loopback listener.
type server struct {
	hs     *http.Server
	done   chan error
	base   string
	client *http.Client
	prep   *sweep.Prepared
	led    *ledger
}

// startServer starts the service (registry, server, listener) and runs
// the registry's first prepare for the workload's instance key — the
// set-up a `repro serve` user waits for before the first campaign.
func startServer(spec sweep.Spec, key service.Key, clients int, led *ledger) (*server, error) {
	reg := service.NewRegistry(spec, 0)
	srv := service.NewServer(reg, "")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		hs:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second},
		done: make(chan error, 1),
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns: clients, MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients,
		}},
		led: led,
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	inst, err := reg.Acquire(key)
	if err != nil {
		s.close()
		return nil, err
	}
	s.prep, err = inst.Prepared()
	inst.Release()
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close stops the server and waits for its serve loop to return.
func (s *server) close() {
	s.hs.Close()
	<-s.done
	s.client.CloseIdleConnections()
}

// call issues one request and decodes a JSON reply with the wanted
// status. Every reply is one operation; a non-2xx reply fails it, and a
// 429 is retried after a short pause so the campaign can finish.
func (s *server) call(method, path, body string, want int, out any) error {
	for tries := 0; ; tries++ {
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		req, err := http.NewRequest(method, s.base+path, rd)
		if err != nil {
			return err
		}
		resp, err := s.client.Do(req)
		if err != nil {
			s.led.op(err)
			return err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != want {
			err = fmt.Errorf("%s %s: status %d (want %d): %s", method, path, resp.StatusCode, want, bytes.TrimSpace(data))
		}
		if !s.led.op(err) {
			if resp.StatusCode == http.StatusTooManyRequests && tries < 100 {
				time.Sleep(10 * time.Millisecond)
				continue
			}
			return err
		}
		if out == nil {
			return nil
		}
		if err := json.Unmarshal(data, out); err != nil {
			s.led.fail(fmt.Sprintf("%s %s: decode: %v", method, path, err))
			return err
		}
		return nil
	}
}

// httpRun is one campaign as a client sees it.
type httpRun struct {
	seed     uint64
	stepMS   []float64
	seeds    []graph.NodeID // from the step replies
	res      *adaptive.RunResult
	createMS float64
	deleteMS float64
	dur      time.Duration
}

// asRuns converts HTTP campaigns to the library's run records, with the
// step requests as the decisions.
func asRuns(hr []httpRun) []campaignRun {
	out := make([]campaignRun, len(hr))
	for i, r := range hr {
		out[i] = campaignRun{res: r.res, dur: r.dur, decideMS: r.stepMS}
	}
	return out
}

// campaign drives create → step* → result → delete over HTTP.
func (s *server) campaign(idx int, seed uint64, tr *tracer) (run httpRun) {
	run.seed = seed
	root := tr.begin("campaign", idx, -1)
	defer func() { run.dur = tr.end(root) }()
	var created struct {
		ID string `json:"id"`
	}
	m := tr.begin("http_create", idx, root.id)
	err := s.call(http.MethodPost, "/v1/campaigns", fmt.Sprintf(`{"seed": %d}`, seed), http.StatusCreated, &created)
	run.createMS = ms(tr.end(m))
	if err != nil {
		return run
	}
	path := "/v1/campaigns/" + created.ID
	for {
		var resp struct {
			Seed *graph.NodeID `json:"seed"`
			Stop bool          `json:"stop"`
		}
		m := tr.begin("http_step", idx, root.id)
		err := s.call(http.MethodPost, path+"/step", "{}", http.StatusOK, &resp)
		run.stepMS = append(run.stepMS, ms(tr.end(m)))
		if err != nil {
			return run
		}
		if resp.Stop || resp.Seed == nil {
			break
		}
		run.seeds = append(run.seeds, *resp.Seed)
	}
	var res adaptive.RunResult
	m = tr.begin("http_result", idx, root.id)
	err = s.call(http.MethodGet, path+"/result", "", http.StatusOK, &res)
	tr.end(m)
	if err == nil {
		run.res = &res
	}
	m = tr.begin("http_delete", idx, root.id)
	s.call(http.MethodDelete, path, "", http.StatusOK, nil)
	run.deleteMS = ms(tr.end(m))
	return run
}

// pass calls fn for every campaign index from clients closed-loop
// clients and returns the wall time.
func (s *server) pass(n, clients int, fn func(i int)) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// list runs the campaign list once.
func (s *server) list(seeds []uint64, clients int, tr *tracer) ([]httpRun, time.Duration) {
	runs := make([]httpRun, len(seeds))
	wall := s.pass(len(seeds), clients, func(i int) { runs[i] = s.campaign(i, seeds[i], tr) })
	return runs, wall
}

// scrape reads GET /metrics and returns the unlabeled series by name.
func (s *server) scrape() (map[string]float64, time.Duration, error) {
	start := time.Now()
	resp, err := s.client.Get(s.base + "/metrics")
	if !s.led.op(err) {
		return nil, 0, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	d := time.Since(start)
	if err := sc.Err(); !s.led.op(err) {
		return nil, 0, err
	}
	return out, d, nil
}

// checkHTTP checks every HTTP campaign: the result matches the step
// stream, and the outcome passes checkOutcome on the campaign's own
// realization (the service's stream discipline: world split first).
func checkHTTP(led *ledger, prep *sweep.Prepared, runs []httpRun) {
	for i, r := range runs {
		if !led.check(r.res != nil, "campaign %d: no result", i) {
			continue
		}
		led.check(slices.Equal(r.res.Seeds, r.seeds), "campaign %d: result seeds %v, step replies %v", i, r.res.Seeds, r.seeds)
		world := cascade.Sample(prep.Inst.G, prep.Inst.Model, rng.New(r.seed).Split())
		checkOutcome(led, prep.Inst, r.res, world, i)
	}
}

// replay reruns a fixed sample of the HTTP campaigns in-process through
// adaptive.Session with the service's seed derivation and options, and
// checks each against its HTTP twin seed for seed.
func replay(d *runner, runs []httpRun, tr *tracer) []campaignRun {
	stride := max(1, len(runs)/replaySample)
	var out []campaignRun
	for i := 0; i < len(runs); i += stride {
		r := d.campaign(len(runs)+i, runs[i].seed, tr)
		out = append(out, r)
		if r.res == nil || runs[i].res == nil {
			d.led.check(false, "campaign %d: replay or HTTP run has no result", i)
			continue
		}
		d.led.check(slices.Equal(r.res.Seeds, runs[i].res.Seeds) && r.res.Spread == runs[i].res.Spread && r.res.Profit == runs[i].res.Profit,
			"campaign %d: in-process replay seeded %v (spread %d), HTTP %v (spread %d)",
			i, r.res.Seeds, r.res.Spread, runs[i].res.Seeds, runs[i].res.Spread)
	}
	return out
}

// newReplayRunner builds the in-process runner for the replay, under the
// service's options: the spec's sampling parameters and worker count.
func newReplayRunner(prep *sweep.Prepared, p params, spec sweep.Spec, led *ledger) *runner {
	d := newRunner(prep.Inst, p, spec.Workers, led)
	d.opts.Sampling = adaptive.SamplingOptions{
		Policy: spec.Sampler, Zeta: spec.Zeta, Eps: spec.Eps, Delta: spec.Delta, Workers: spec.Workers,
	}
	return d
}

func runServe(cfg config, led *ledger) (map[string]float64, error) {
	p := workloadParams[cfg.def.Name].withScale(cfg.scale)
	spec := sweep.Spec{
		Datasets: []string{p.dataset}, Models: []string{p.model.String()},
		CostSettings: []string{"uniform"}, Algos: []string{p.algo},
		Scale: p.scale, K: targetK, Seed: instanceSeed, Workers: cfg.def.Workers,
	}
	spec.SetDefaults()
	key := service.Key{Dataset: p.dataset, Model: spec.Models[0], Cost: spec.CostSettings[0], Scale: p.scale}
	clients := cfg.def.Clients

	var setupS []float64
	var s *server
	for i := 0; i < cfg.setupReps; i++ {
		if s != nil {
			s.close()
			s = nil
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		s, err = startServer(spec, key, clients, led)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer s.close()
	// The registry's warm batchers keep the RR storage of the largest
	// campaign each has served, so after the timed phase the heap depends on
	// which campaigns the seed drew; ris.peak_mb reports that part. The live
	// heap is taken once the server is up with its instance prepared.
	heap := liveHeapMB()

	warm, seeds := campaignSeeds(cfg.seed, clients, cfg.campaigns)
	s.list(warm, clients, newTracer(false))
	if !cfg.trace {
		reps := make([][]campaignRun, cfg.reps)
		walls := make([]float64, cfg.reps)
		var runs []httpRun
		for k := range reps {
			hr, wall := s.list(seeds, clients, newTracer(false))
			if k == 0 {
				runs = hr
			}
			reps[k], walls[k] = asRuns(hr), wall.Seconds()
			checkSameRuns(led, reps[0], reps[k])
		}
		checkHTTP(led, s.prep, runs)
		replay(newReplayRunner(s.prep, p, spec, led), runs, newTracer(false))
		m := endToEnd(reps, walls)
		m["setup_s"] = median(setupS)
		m["live_heap_mb"] = heap
		return m, nil
	}

	// The traced run drives every campaign twice in a row, untraced and
	// traced, alternating which goes first, so a drift in host speed
	// cancels out of trace.overhead_frac.
	tr := newTracer(true)
	off := newTracer(false)
	plain, traced := make([]httpRun, len(seeds)), make([]httpRun, len(seeds))
	before, _, err := s.scrape()
	if err != nil {
		return nil, err
	}
	s.pass(len(seeds), clients, func(i int) {
		if i%2 == 0 {
			plain[i], traced[i] = s.campaign(i, seeds[i], off), s.campaign(i, seeds[i], tr)
		} else {
			traced[i], plain[i] = s.campaign(i, seeds[i], tr), s.campaign(i, seeds[i], off)
		}
	})
	after, scrapeDur, err := s.scrape()
	if err != nil {
		return nil, err
	}
	checkHTTP(led, s.prep, plain)
	checkHTTP(led, s.prep, traced)
	replayed := replay(newReplayRunner(s.prep, p, spec, led), traced, tr)

	var steps, creates, deletes []float64
	for _, r := range traced {
		steps = append(steps, r.stepMS...)
		creates = append(creates, r.createMS)
		deletes = append(deletes, r.deleteMS)
	}
	plainRuns, tracedRuns := asRuns(plain), asRuns(traced)
	checkSameRuns(led, plainRuns, tracedRuns)
	// The RR and bounds counters come from every HTTP campaign's result;
	// the select time needs in-process NextSeed spans, so it comes from the
	// replay with the other adaptive and cascade figures.
	m := layerMetrics(tr, replayed)
	for k, v := range risMetrics(tracedRuns, 0) {
		if k != "adaptive.select_ms_per_campaign" {
			m[k] = v
		}
	}
	const hist = "repro_campaign_step_duration_seconds"
	serverStep := 1000 * ratio(after[hist+"_sum"]-before[hist+"_sum"], after[hist+"_count"]-before[hist+"_count"])
	m["service.step_server_ms"] = serverStep
	m["service.http_overhead_ms"] = mean(steps) - serverStep
	m["service.create_ms"] = mean(creates)
	m["service.delete_ms"] = mean(deletes)
	m["service.throttled"] = after["repro_http_throttled_total"]
	m["service.instance_prepares"] = after["repro_registry_prepares_total"]
	m["obs.scrape_ms"] = ms(scrapeDur)
	m["trace.overhead_frac"] = ratio(sumDur(tracedRuns), sumDur(plainRuns)) - 1
	m["imm.rr_sets"] = float64(s.prep.ImmRes.TotalRR)

	// The registry's prepare is one opaque call; time its two layers by
	// repeating them outside the server and check they select the same
	// targets.
	su, err := setupLibrary(p, spec.Workers, cfg.setupReps, led)
	if err != nil {
		return nil, err
	}
	led.check(slices.Equal(su.inst.Targets, s.prep.Inst.Targets), "library set-up selected other targets than the registry")
	m["gen.generate_s"] = median(su.genS)
	m["imm.prepare_s"] = median(su.prepS)

	rows, unattributed := tr.breakdown()
	m["trace.unattributed_frac"] = unattributed
	if err := tr.writeTrace(cfg.traceDir, cfg.def.Name, cfg.seed, rows, unattributed); err != nil {
		return nil, err
	}
	return m, nil
}
