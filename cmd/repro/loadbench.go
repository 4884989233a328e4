package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adaptive"
	"repro/internal/graph"
	"repro/internal/service"
	"repro/internal/sweep"
)

// cmdLoadBench measures serving throughput: it starts the campaign
// server in-process on a loopback listener, drives it with a closed
// loop of concurrent clients — each repeatedly creating a campaign,
// stepping it to completion over HTTP, and deleting it — and reports
// campaigns/sec plus the next-seed (step request) latency distribution.
// The first campaign runs untimed so the instance registry's one-time
// preparation and the HTTP client's connection setup stay out of the
// measured window; every timed campaign rides the warm instance.
//
// Output is a BENCH_serve_*.json document (`"kind": "serve-loadbench"`)
// that `repro report` renders as a "Serving throughput" section.
// Like every wall-clock throughput, these numbers are machine-dependent:
// committed fixtures capture the trajectory of the serving hot path, not
// portable truth.

// serveBenchKind tags the loadbench JSON document so `repro report` can
// tell it apart from plain bench documents.
const serveBenchKind = "serve-loadbench"

// serveBenchOutput is the BENCH_serve_*.json document.
type serveBenchOutput struct {
	Kind            string  `json:"kind"`
	Dataset         string  `json:"dataset"`
	Model           string  `json:"model"`
	Cost            string  `json:"cost"`
	Scale           float64 `json:"scale"`
	K               int     `json:"k"`
	Algo            string  `json:"algo"`
	Clients         int     `json:"clients"`
	Seed            uint64  `json:"seed"`
	WallMS          float64 `json:"wall_ms"`
	Campaigns       int64   `json:"campaigns"`
	Steps           int64   `json:"steps"`
	CampaignsPerSec float64 `json:"campaigns_per_sec"`
	StepsPerSec     float64 `json:"steps_per_sec"`
	StepP50MS       float64 `json:"step_p50_ms"`
	StepP95MS       float64 `json:"step_p95_ms"`
	StepP99MS       float64 `json:"step_p99_ms"`
}

func cmdLoadBench(args []string) error {
	fs := flag.NewFlagSet("loadbench", flag.ExitOnError)
	dataset := fs.String("dataset", "nethept-s", "Table II stand-in dataset name")
	model := fs.String("model", "ic", "diffusion model: ic or lt")
	costName := fs.String("cost", "uniform", "cost setting: degree-proportional, uniform, random")
	algo := fs.String("algo", adaptive.AlgoADDATP, fmt.Sprintf("algorithm: %v", adaptive.Algorithms))
	clients := fs.Int("clients", 4, "concurrent closed-loop clients")
	duration := fs.Duration("duration", 5*time.Second, "timed window (campaigns in flight at the deadline finish and count)")
	out := fs.String("out", "", "output file (default BENCH_serve_<dataset>.json)")
	var spec sweep.Spec
	specFlags(fs, &spec)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *clients <= 0 {
		return fmt.Errorf("loadbench: clients must be positive, got %d", *clients)
	}
	if *duration <= 0 {
		return fmt.Errorf("loadbench: duration must be positive, got %s", *duration)
	}
	if *out == "" {
		*out = fmt.Sprintf("BENCH_serve_%s.json", *dataset)
	}
	spec.Datasets = []string{*dataset}
	spec.Models = []string{*model}
	spec.CostSettings = []string{*costName}
	spec.Algos = []string{*algo}
	if err := spec.Validate(); err != nil {
		return err
	}

	// The in-process server: a real HTTP stack on a loopback listener, so
	// the measured path is exactly what `repro serve` clients see — mux
	// dispatch, instrumentation, JSON encoding, kernel sockets — without
	// cross-process scheduling noise.
	reg := service.NewRegistry(spec, 0)
	srv := service.NewServer(reg, "")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        *clients * 2,
		MaxIdleConnsPerHost: *clients * 2,
	}}

	// Untimed warmup campaign: triggers the one-time instance preparation
	// and leaves a warm batcher parked in the pool.
	warm := runOneCampaign(client, base, spec.Seed+100, nil)
	if warm.err != nil {
		return fmt.Errorf("loadbench: warmup campaign: %w", warm.err)
	}

	var (
		seedCtr   atomic.Uint64 // per-campaign seed offsets, across clients
		campaigns atomic.Int64
		steps     atomic.Int64
		stop      atomic.Bool
		mu        sync.Mutex
		latencies []float64 // step request latency, ms
		firstErr  error
	)
	start := time.Now()
	time.AfterFunc(*duration, func() { stop.Store(true) })
	var wg sync.WaitGroup
	for w := 0; w < *clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]float64, 0, 1024)
			for !stop.Load() {
				seed := spec.Seed + 100 + seedCtr.Add(1)
				res := runOneCampaign(client, base, seed, &local)
				if res.err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = res.err
					}
					mu.Unlock()
					stop.Store(true)
					return
				}
				campaigns.Add(1)
				steps.Add(res.steps)
			}
			mu.Lock()
			latencies = append(latencies, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return fmt.Errorf("loadbench: %w", firstErr)
	}
	if campaigns.Load() == 0 {
		return fmt.Errorf("loadbench: no campaign completed within %s; raise --duration or shrink --scale", *duration)
	}

	sort.Float64s(latencies)
	doc := serveBenchOutput{
		Kind:            serveBenchKind,
		Dataset:         *dataset,
		Model:           *model,
		Cost:            *costName,
		Scale:           spec.Scale,
		K:               spec.K,
		Algo:            *algo,
		Clients:         *clients,
		Seed:            spec.Seed,
		WallMS:          wallMS(elapsed),
		Campaigns:       campaigns.Load(),
		Steps:           steps.Load(),
		CampaignsPerSec: float64(campaigns.Load()) / elapsed.Seconds(),
		StepsPerSec:     float64(steps.Load()) / elapsed.Seconds(),
		StepP50MS:       percentile(latencies, 0.50),
		StepP95MS:       percentile(latencies, 0.95),
		StepP99MS:       percentile(latencies, 0.99),
	}
	if err := writeJSONAtomic(*out, &doc); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "loadbench: %s/%s/%s@%g clients=%d wall=%.1fs\n",
		*dataset, *model, *costName, spec.Scale, *clients, elapsed.Seconds())
	fmt.Fprintf(os.Stderr, "  %d campaigns (%.1f/s), %d steps (%.0f/s), step latency p50/p95/p99 = %.3f/%.3f/%.3f ms\n",
		doc.Campaigns, doc.CampaignsPerSec, doc.Steps, doc.StepsPerSec,
		doc.StepP50MS, doc.StepP95MS, doc.StepP99MS)
	fmt.Fprintf(os.Stderr, "loadbench: wrote %s\n", *out)
	return nil
}

// campaignResult is one closed-loop cycle's accounting.
type campaignResult struct {
	steps int64
	err   error
}

// runOneCampaign drives create → step* → delete over HTTP. When lat is
// non-nil, each step request's latency is appended to it in ms.
func runOneCampaign(client *http.Client, base string, seed uint64, lat *[]float64) campaignResult {
	var st struct {
		ID string `json:"id"`
	}
	body := fmt.Sprintf(`{"seed": %d}`, seed)
	if err := doJSON(client, http.MethodPost, base+"/v1/campaigns", body, http.StatusCreated, &st); err != nil {
		return campaignResult{err: err}
	}
	var res campaignResult
	stepURL := base + "/v1/campaigns/" + st.ID + "/step"
	for {
		var resp struct {
			Seed *graph.NodeID `json:"seed"`
			Stop bool          `json:"stop"`
		}
		t0 := time.Now()
		err := doJSON(client, http.MethodPost, stepURL, "{}", http.StatusOK, &resp)
		if lat != nil {
			*lat = append(*lat, float64(time.Since(t0))/float64(time.Millisecond))
		}
		if err != nil {
			res.err = err
			return res
		}
		res.steps++
		if resp.Stop {
			break
		}
	}
	res.err = doJSON(client, http.MethodDelete, base+"/v1/campaigns/"+st.ID, "", http.StatusOK, nil)
	return res
}

// doJSON issues one request and decodes the JSON response, insisting on
// the expected status. 429 backpressure responses honor Retry-After
// capped at one second — a closed-loop client should back off the way
// the README tells real clients to, without stalling the benchmark.
func doJSON(client *http.Client, method, url, body string, wantStatus int, out any) error {
	for {
		var rd io.Reader
		if body != "" {
			rd = bytes.NewReader([]byte(body))
		}
		req, err := http.NewRequest(method, url, rd)
		if err != nil {
			return err
		}
		if body != "" {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			time.Sleep(100 * time.Millisecond)
			continue
		}
		if resp.StatusCode != wantStatus {
			return fmt.Errorf("%s %s: status %d (want %d): %s", method, url, resp.StatusCode, wantStatus, data)
		}
		if out == nil {
			return nil
		}
		return json.Unmarshal(data, out)
	}
}

// percentile returns the nearest-rank percentile of an already-sorted
// sample, in the sample's units: the smallest value with at least a q
// share of the sample at or below it, sorted[ceil(q·n)−1].
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// writeJSONAtomic writes doc as indented JSON atomically: temp file in the
// destination directory, fsync, then rename over the target.
func writeJSONAtomic(path string, doc any) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	enc := json.NewEncoder(tmp)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
