// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed list of adaptive campaigns, checks every campaign's output,
// and prints one JSON result line:
//
//	perfbench --workload paper-dblp-hatp --seed 7 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured over
// the workload's repetitions of the campaign list. With --trace 1 the run
// drives every campaign twice in a row, untraced and traced, and the
// result carries the per-layer metrics, computed from spans the benchmark records around
// its own calls into gen, adaptive, cascade and service. catalog.json
// names every metric with its unit, the end-to-end metric it should move
// and the workloads it matters on.
//
// The result line's attempted and failed counts cover every operation
// (campaign create, step, observe, mutate, checkpoint and delete calls)
// and every output check; any failure makes the run incorrect.
//
// The work is fixed, not the duration: --seconds times the workload's
// nominal campaign rate gives the size of the campaign list, and --seed
// picks the campaigns. The graph and the instance (targets, costs) are
// fixed per workload.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rng"
)

//go:embed catalog.json
var catalogJSON []byte

// metricDef is a catalog.json metric. The catalog also says, per metric,
// which layer it belongs to and what it records; Moves and On predict the
// end-to-end metrics and workloads a change to that layer should move.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  float64  `json:"bound,omitempty"`
	Moves  []string `json:"moves,omitempty"`
	On     []string `json:"on,omitempty"`
}

// workloadDef is a catalog.json workload; the catalog also records its
// loop type.
type workloadDef struct {
	Name    string `json:"name"`
	Why     string `json:"why"`
	Clients int    `json:"clients"`
	Workers int    `json:"workers"`
	// CampaignsPerSecond sizes the fixed campaign list: --seconds times
	// this rate, about the workload's throughput on a 2-core host.
	CampaignsPerSecond float64 `json:"campaigns_per_second"`
	// Reps is how many times a run with --trace 0 repeats the list.
	Reps int `json:"reps"`
	// SetupReps is how many set-ups a run times; setup_s is their median.
	SetupReps int `json:"setup_reps"`
}

type catalog struct {
	Workloads []workloadDef `json:"workloads"`
	EndToEnd  []metricDef   `json:"end_to_end"`
	PerLayer  []metricDef   `json:"per_layer"`
}

func loadCatalog() (*catalog, error) {
	var c catalog
	if err := json.Unmarshal(catalogJSON, &c); err != nil {
		return nil, fmt.Errorf("catalog.json: %w", err)
	}
	return &c, nil
}

func (c *catalog) workload(name string) (workloadDef, bool) {
	for _, w := range c.Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// config is one run's parameters.
type config struct {
	def       workloadDef
	seed      uint64
	campaigns int
	trace     bool
	setupReps int
	reps      int     // repetitions of the timed campaign list
	scale     float64 // 0 = the workload's own scale
	traceDir  string  // where a traced run writes its spans
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runInfo records what a run's counts depend on besides the seed.
type runInfo struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Campaigns  int     `json:"campaigns"`
	Trace      bool    `json:"trace"`
	Scale      float64 `json:"scale"`
	Workers    int     `json:"workers"`
	Clients    int     `json:"clients"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
}

// ledger counts attempted and failed operations (campaign create, step,
// observe, mutate, checkpoint and delete calls, plus output checks). Safe
// for concurrent use.
type ledger struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	errs              []string
}

// op records one operation and reports whether it succeeded.
func (l *ledger) op(err error) bool {
	l.attempted.Add(1)
	if err == nil {
		return true
	}
	l.fail(err.Error())
	return false
}

// check records one output check.
func (l *ledger) check(ok bool, format string, args ...any) bool {
	l.attempted.Add(1)
	if !ok {
		l.fail("check failed: " + fmt.Sprintf(format, args...))
	}
	return ok
}

func (l *ledger) fail(msg string) {
	l.failed.Add(1)
	l.mu.Lock()
	if len(l.errs) < 20 {
		l.errs = append(l.errs, msg)
	}
	l.mu.Unlock()
}

// campaignSeeds derives the warm-up and timed campaign seeds from the
// workload seed; the same seed always gives the same list.
func campaignSeeds(seed uint64, warm, n int) (warmSeeds, seeds []uint64) {
	r := rng.New(seed)
	for i := 0; i < warm; i++ {
		warmSeeds = append(warmSeeds, r.Uint64())
	}
	for i := 0; i < n; i++ {
		seeds = append(seeds, r.Uint64())
	}
	return warmSeeds, seeds
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name (see catalog.json)")
	seed := fs.Uint64("seed", 1, "workload seed; picks the campaign list")
	seconds := fs.Float64("seconds", 10, "sizes the fixed campaign list: seconds × the workload's nominal campaign rate")
	traceFlag := fs.Int("trace", 0, "1 runs the traced breakdown and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cat, err := loadCatalog()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	def, ok := cat.workload(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1, got %d\n", *traceFlag)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: --seconds must be positive, got %g\n", *seconds)
		return 2
	}
	cfg := config{
		def: def, seed: *seed, trace: *traceFlag == 1,
		campaigns: int(math.Ceil(*seconds * def.CampaignsPerSecond)),
		setupReps: def.SetupReps, reps: def.Reps,
		traceDir: filepath.Join(".bench_build", "trace"),
	}

	res, err := runWorkload(cfg, cat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload and assembles the result line with the
// metric set the mode asks for, units from the catalog.
func runWorkload(cfg config, cat *catalog) (*resultLine, error) {
	led := &ledger{}
	run := runLibrary
	if cfg.def.Name == "serve-nethept" {
		run = runServe
	}
	m, err := run(cfg, led)
	if err != nil {
		return nil, err
	}
	info, err := json.Marshal(map[string]runInfo{"run": {
		Workload: cfg.def.Name, Seed: cfg.seed, Campaigns: cfg.campaigns, Trace: cfg.trace,
		Scale:   workloadParams[cfg.def.Name].withScale(cfg.scale).scale,
		Workers: cfg.def.Workers, Clients: cfg.def.Clients,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}})
	if err != nil {
		return nil, err
	}
	fmt.Println(string(info))
	defs := cat.EndToEnd
	if cfg.trace {
		defs = cat.PerLayer
	}
	metrics := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := m[d.Name]
		if led.check(ok, "metric %s not measured", d.Name) {
			metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		}
	}
	for _, e := range led.errs {
		fmt.Fprintln(os.Stderr, "perfbench:", e)
	}
	failed := led.failed.Load()
	return &resultLine{Correct: failed == 0, Attempted: led.attempted.Load(), Failed: failed, Metrics: metrics}, nil
}

// ---------------------------------------------------------------------------
// Statistics.

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the nearest-rank q-quantile of xs (sorted in place).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(xs) {
		rank = len(xs) - 1
	}
	return xs[rank]
}

// median is the middle value of xs (mean of the two middle values for an
// even count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// liveHeapMB forces a collection and returns the heap still in use, MiB.
// The second collection also empties the sync.Pool victim caches.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
