package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"repro/internal/adaptive"
	"repro/internal/cascade"
	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/imm"
	"repro/internal/rng"
)

// params are a workload's fixed inputs besides the campaign list.
type params struct {
	dataset    string
	scale      float64
	model      cascade.Model
	algo       string
	churnFrac  float64 // share of edges replaced per delta; 0 = static graph
	churnEvery int     // observed rounds between deltas
}

var workloadParams = map[string]params{
	"serve-nethept":     {dataset: "nethept-s", scale: 1, model: cascade.IC, algo: adaptive.AlgoADDATP},
	"paper-dblp-hatp":   {dataset: "dblp-s", scale: 0.25, model: cascade.IC, algo: adaptive.AlgoHATP},
	"churn-epinions-lt": {dataset: "epinions-s", scale: 0.5, model: cascade.LT, algo: adaptive.AlgoADDATP, churnFrac: 0.001, churnEvery: 2},
}

// Instance parameters shared by every workload: the repro CLI defaults
// (k = 50 IMM targets, uniform cost, root seed 1).
const (
	targetK      = 50
	instanceSeed = 1
	// probeRound is the round after which the churn workload keeps one
	// campaign's checkpoint for the resume check; it follows the first
	// delta, so the resume replays a delta log.
	probeRound = 3
	warmupRuns = 2
)

func (p params) withScale(s float64) params {
	if s > 0 {
		p.scale = s
	}
	return p
}

// setupResult is the outcome of a workload's repeated set-up.
type setupResult struct {
	inst        *adaptive.Instance
	imm         *imm.Result
	genS, prepS []float64
	totalS      []float64
}

// setupLibrary runs gen.Generate + adaptive.Prepare reps times and keeps
// the last instance; every repetition must select the same targets.
func setupLibrary(p params, workers, reps int, led *ledger) (*setupResult, error) {
	ds, err := gen.Lookup(p.dataset)
	if err != nil {
		return nil, err
	}
	out := &setupResult{}
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		g, err := gen.Generate(ds.Config(p.scale))
		if err != nil {
			return nil, fmt.Errorf("gen: %w", err)
		}
		t1 := time.Now()
		inst, immRes, err := adaptive.Prepare(g, p.model, adaptive.Setup{
			K: targetK, CostSetting: cost.Uniform, Seed: instanceSeed, Workers: workers,
		})
		if err != nil {
			return nil, fmt.Errorf("prepare: %w", err)
		}
		t2 := time.Now()
		out.genS = append(out.genS, t1.Sub(t0).Seconds())
		out.prepS = append(out.prepS, t2.Sub(t1).Seconds())
		out.totalS = append(out.totalS, t2.Sub(t0).Seconds())
		if i > 0 {
			led.check(slices.Equal(inst.Targets, out.inst.Targets) && immRes.TotalRR == out.imm.TotalRR,
				"set-up %d selected different targets or drew a different IMM count than the one before", i)
		}
		out.inst, out.imm = inst, immRes
	}
	return out, nil
}

// runner runs library campaigns on one instance: the sweep/RunExperiment
// path (cascade.Sample world, adaptive.NewSession, NextSeed/Observe), plus
// the mutate-and-resample schedule of sweep's churn cells when
// p.churnEvery is set, with an in-memory checkpoint after every round.
type runner struct {
	inst *adaptive.Instance
	p    params
	opts adaptive.RunOptions
	led  *ledger

	// probe is the first mid-campaign checkpoint taken at probeRound.
	probe *probe
}

type probe struct {
	campaign int
	seed     uint64
	blob     []byte
	lastMut  int // round of the last delta before the checkpoint, 0 if none
}

// campaignState is a live campaign between rounds.
type campaignState struct {
	idx     int
	seed    uint64
	sess    *adaptive.Session
	env     *adaptive.Environment
	round   int
	lastMut int
}

// campaignRun is what one campaign reports to the metrics.
type campaignRun struct {
	res      *adaptive.RunResult
	dur      time.Duration
	decideMS []float64
	touched  []int
	ckptB    []int
}

func newRunner(inst *adaptive.Instance, p params, workers int, led *ledger) *runner {
	return &runner{
		inst: inst, p: p, led: led,
		opts: adaptive.RunOptions{Sampling: adaptive.SamplingOptions{Workers: workers}},
	}
}

// churnDeltaSeed and churnWorldSeed derive the delta and post-delta world
// streams of one campaign round; both are pure functions of (campaign
// seed, round), so a resumed campaign replays them exactly.
func churnDeltaSeed(seed uint64, round int) uint64 {
	return seed ^ (0x9E3779B97F4A7C15 * uint64(round))
}

func churnWorldSeed(seed uint64, round int) uint64 {
	return seed ^ (0xBF58476D1CE4E5B9 * uint64(round))
}

// campaign runs one campaign to completion, timing (and, when tr is on,
// recording) every layer call, then checks its output.
func (d *runner) campaign(idx int, seed uint64, tr *tracer) campaignRun {
	var run campaignRun
	root := tr.begin("campaign", idx, -1)
	// The service's and RunExperiment's stream discipline: world first,
	// then algorithm, both split off the campaign's root stream.
	r := rng.New(seed)
	worldRNG, algoRNG := r.Split(), r.Split()
	m := tr.begin("world_sample", idx, root.id)
	rz := cascade.Sample(d.inst.G, d.inst.Model, worldRNG)
	env := adaptive.NewEnvironment(rz)
	tr.end(m)
	m = tr.begin("session_new", idx, root.id)
	sess, err := adaptive.NewSession(d.inst, d.p.algo, d.opts, algoRNG)
	tr.end(m)
	if !d.led.op(err) {
		run.dur = tr.end(root)
		return run
	}
	st := &campaignState{idx: idx, seed: seed, sess: sess, env: env}
	ok := d.rounds(st, tr, root.id, &run)
	run.dur = tr.end(root)
	if !ok {
		return run
	}
	run.res = sess.Result()
	var world *cascade.Realization
	if d.p.churnEvery == 0 {
		world = rz
	}
	checkOutcome(d.led, d.inst, run.res, world, idx)
	return run
}

// rounds drives st until the campaign stops. It reports false when an
// operation failed (recorded in the ledger).
func (d *runner) rounds(st *campaignState, tr *tracer, parent int, run *campaignRun) bool {
	idx := st.idx
	for {
		step := tr.begin("step", idx, parent)
		m := tr.begin("decide", idx, step.id)
		u, stop, err := st.sess.NextSeed()
		run.decideMS = append(run.decideMS, ms(tr.end(m)))
		if !d.led.op(err) {
			tr.end(step)
			return false
		}
		if stop {
			tr.end(step)
			return true
		}
		m = tr.begin("feedback", idx, step.id)
		activated := st.env.Observe(u)
		tr.end(m)
		m = tr.begin("observe", idx, step.id)
		err = st.sess.Observe(activated)
		tr.end(m)
		tr.end(step)
		if !d.led.op(err) {
			return false
		}
		st.round++
		if d.p.churnEvery == 0 {
			continue
		}
		if st.round%d.p.churnEvery == 0 && !d.churn(st, tr, parent, run) {
			return false
		}
		m = tr.begin("checkpoint", idx, parent)
		blob, err := st.sess.Checkpoint()
		tr.end(m)
		if !d.led.op(err) {
			return false
		}
		run.ckptB = append(run.ckptB, len(blob))
		if d.probe == nil && st.round == probeRound {
			d.probe = &probe{campaign: idx, seed: st.seed, blob: blob, lastMut: st.lastMut}
		}
	}
}

// churn applies one gen.ChurnDeltas edit through Session.Mutate and
// resamples the world on the new graph, keeping the residual in lockstep
// (the schedule of sweep's churn cells).
func (d *runner) churn(st *campaignState, tr *tracer, parent int, run *campaignRun) bool {
	m := tr.begin("churn_deltas", st.idx, parent)
	ins, dels := gen.ChurnDeltas(st.sess.Instance().G, d.p.churnFrac, rng.New(churnDeltaSeed(st.seed, st.round)))
	tr.end(m)
	if len(ins) == 0 && len(dels) == 0 {
		return true
	}
	m = tr.begin("mutate", st.idx, parent)
	dres, err := st.sess.Mutate(ins, dels)
	tr.end(m)
	if !d.led.op(err) {
		return false
	}
	run.touched = append(run.touched, len(dres.Touched))
	m = tr.begin("world_sample", st.idx, parent)
	rz := cascade.Sample(st.sess.Instance().G, d.inst.Model, rng.New(churnWorldSeed(st.seed, st.round)))
	st.env = adaptive.NewEnvironmentAt(rz, st.sess.CloneResidual(), st.sess.Spread())
	tr.end(m)
	st.lastMut = st.round
	return true
}

// checkResume restores the probe checkpoint with adaptive.ResumeSession,
// finishes the campaign, and checks it ends with the uninterrupted run's
// seeds.
func (d *runner) checkResume(want *adaptive.RunResult) {
	pr := d.probe
	sess, err := adaptive.ResumeSession(d.inst, pr.blob, adaptive.ResumeOptions{})
	if !d.led.op(err) {
		return
	}
	var rz *cascade.Realization
	if sess.Mutations() > 0 {
		rz = cascade.Sample(sess.Instance().G, d.inst.Model, rng.New(churnWorldSeed(pr.seed, pr.lastMut)))
	} else {
		rz = cascade.Sample(d.inst.G, d.inst.Model, rng.New(pr.seed).Split())
	}
	st := &campaignState{
		idx: pr.campaign, seed: pr.seed, sess: sess,
		env:   adaptive.NewEnvironmentAt(rz, sess.CloneResidual(), sess.Spread()),
		round: sess.Rounds(), lastMut: pr.lastMut,
	}
	var run campaignRun
	if !d.rounds(st, newTracer(false), -1, &run) {
		return
	}
	got := sess.Result()
	d.led.check(slices.Equal(got.Seeds, want.Seeds) && got.Spread == want.Spread,
		"campaign %d resumed from its round-%d checkpoint seeded %v (spread %d), uninterrupted %v (spread %d)",
		pr.campaign, probeRound, got.Seeds, got.Spread, want.Seeds, want.Spread)
}

// pass runs the campaign list once, checks each campaign as it finishes
// (untimed), and returns the runs.
func (d *runner) pass(seeds []uint64, tr *tracer) []campaignRun {
	runs := make([]campaignRun, len(seeds))
	for i, s := range seeds {
		runs[i] = d.campaign(i, s, tr)
	}
	return runs
}

// pairedPass runs every campaign twice in a row, untraced and traced,
// alternating which goes first, so a drift in host speed cancels out of
// trace.overhead_frac.
func (d *runner) pairedPass(seeds []uint64, tr *tracer) (plain, traced []campaignRun) {
	plain, traced = make([]campaignRun, len(seeds)), make([]campaignRun, len(seeds))
	off := newTracer(false)
	for i, s := range seeds {
		if i%2 == 0 {
			plain[i], traced[i] = d.campaign(i, s, off), d.campaign(i, s, tr)
		} else {
			traced[i], plain[i] = d.campaign(i, s, tr), d.campaign(i, s, off)
		}
	}
	return plain, traced
}

func runLibrary(cfg config, led *ledger) (map[string]float64, error) {
	p := workloadParams[cfg.def.Name].withScale(cfg.scale)
	su, err := setupLibrary(p, cfg.def.Workers, cfg.setupReps, led)
	if err != nil {
		return nil, err
	}
	d := newRunner(su.inst, p, cfg.def.Workers, led)
	warm, seeds := campaignSeeds(cfg.seed, warmupRuns, cfg.campaigns)
	d.pass(warm, newTracer(false))
	d.probe = nil

	var (
		reps   [][]campaignRun
		walls  []float64
		traced []campaignRun
		tr     = newTracer(cfg.trace)
	)
	if cfg.trace {
		var plain []campaignRun
		plain, traced = d.pairedPass(seeds, tr)
		checkSameRuns(led, plain, traced)
		reps = [][]campaignRun{plain}
	} else {
		for k := 0; k < cfg.reps; k++ {
			reps = append(reps, d.pass(seeds, tr))
			walls = append(walls, sumDur(reps[k]))
			checkSameRuns(led, reps[0], reps[k])
		}
	}
	runs := reps[0]
	heap := liveHeapMB()
	runtime.KeepAlive(su.inst)
	if p.churnEvery > 0 {
		if led.check(d.probe != nil, "no campaign reached round %d for the checkpoint-resume check", probeRound) {
			if want := runs[d.probe.campaign].res; want != nil {
				d.checkResume(want)
			}
		}
	}
	if !cfg.trace {
		m := endToEnd(reps, walls)
		m["setup_s"] = median(su.totalS)
		m["live_heap_mb"] = heap
		return m, nil
	}

	m := layerMetrics(tr, traced)
	m["gen.generate_s"] = median(su.genS)
	m["imm.prepare_s"] = median(su.prepS)
	m["imm.rr_sets"] = float64(su.imm.TotalRR)
	m["trace.overhead_frac"] = ratio(sumDur(traced), sumDur(runs)) - 1
	for _, name := range serviceOnly {
		m[name] = 0
	}
	rows, unattributed := tr.breakdown()
	m["trace.unattributed_frac"] = unattributed
	if err := tr.writeTrace(cfg.traceDir, cfg.def.Name, cfg.seed, rows, unattributed); err != nil {
		return nil, err
	}
	return m, nil
}

// serviceOnly are the per-layer metrics only the serve workload has.
var serviceOnly = []string{
	"service.step_server_ms", "service.http_overhead_ms", "service.create_ms",
	"service.delete_ms", "service.throttled", "service.instance_prepares", "obs.scrape_ms",
}

func sumDur(runs []campaignRun) float64 {
	var t time.Duration
	for _, r := range runs {
		t += r.dur
	}
	return t.Seconds()
}

// endToEnd computes the campaign-list metrics every workload reports
// from reps repetitions of the same list; walls holds each repetition's
// timed wall time. Every repetition makes the same decisions, so each
// decision's latency is its median over the repetitions: a burst of host
// noise slows one repetition, not the reported figure. A campaign's first
// decision (the cold theta draw, about ten times a warm one) is reported
// as first_step_p50_ms; step_p50_ms and step_p95_ms cover the warm
// decisions after it, so the cold mode cannot land on a percentile. Profit
// comes from the first repetition; the others repeat it exactly.
func endToEnd(reps [][]campaignRun, walls []float64) map[string]float64 {
	var first, steps, profits []float64
	at := make([]float64, len(reps))
	for i, r := range reps[0] {
		for j := range r.decideMS {
			for k := range reps {
				if j >= len(reps[k][i].decideMS) {
					return map[string]float64{} // checkSameRuns has failed the run
				}
				at[k] = reps[k][i].decideMS[j]
			}
			if v := median(at); j == 0 {
				first = append(first, v)
			} else {
				steps = append(steps, v)
			}
		}
		if r.res != nil {
			profits = append(profits, r.res.Profit)
		}
	}
	logf("timed repetitions: wall %.4v s; %d campaigns, %d warm steps", walls, len(reps[0]), len(steps))
	return map[string]float64{
		"campaigns_per_s":   ratio(float64(len(reps[0])), median(walls)),
		"first_step_p50_ms": median(first),
		"step_p50_ms":       percentile(steps, 0.50),
		"step_p95_ms":       percentile(steps, 0.95),
		"profit_mean":       mean(profits),
	}
}

// warmDecisions returns every decision latency after each campaign's
// first, in ms.
func warmDecisions(runs []campaignRun) []float64 {
	var out []float64
	for _, r := range runs {
		if len(r.decideMS) > 1 {
			out = append(out, r.decideMS[1:]...)
		}
	}
	return out
}

// layerMetrics computes the per-layer metrics the library layers share
// from the traced pass: span times plus the exact RunResult counters.
func layerMetrics(tr *tracer, runs []campaignRun) map[string]float64 {
	var decideTotal float64
	for _, v := range tr.byName("decide") {
		decideTotal += v
	}
	var touched, ckpt []float64
	for _, r := range runs {
		for _, t := range r.touched {
			touched = append(touched, float64(t))
		}
		for _, b := range r.ckptB {
			ckpt = append(ckpt, float64(b)/1024)
		}
	}
	m := risMetrics(runs, decideTotal)
	m["cascade.world_ms"] = mean(tr.perCampaign("world_sample"))
	m["cascade.feedback_us"] = 1000 * mean(tr.byName("feedback"))
	m["adaptive.session_new_ms"] = mean(tr.byName("session_new"))
	m["adaptive.decide_p50_ms"] = percentile(warmDecisions(runs), 0.50)
	m["adaptive.decide_p95_ms"] = percentile(warmDecisions(runs), 0.95)
	m["adaptive.observe_us"] = 1000 * mean(tr.byName("observe"))
	m["adaptive.checkpoint_ms"] = mean(tr.byName("checkpoint"))
	m["adaptive.checkpoint_kb"] = mean(ckpt)
	m["adaptive.mutate_ms"] = mean(tr.byName("mutate"))
	m["graph.touched_per_delta"] = mean(touched)
	return m
}

// risMetrics turns the campaigns' RunResult counters into the ris.* and
// bounds.* metrics; decideTotalMS is the summed NextSeed time behind them.
func risMetrics(runs []campaignRun, decideTotalMS float64) map[string]float64 {
	var n, drawn, reused, touches, samplingNS, peak, early, attempts, decisions float64
	for _, r := range runs {
		if r.res == nil {
			continue
		}
		n++
		drawn += float64(r.res.RRDrawn)
		reused += float64(r.res.RRReused)
		touches += float64(r.res.RREdgeTouches)
		samplingNS += float64(r.res.SamplingNS)
		peak = max(peak, float64(r.res.RRPeakBytes))
		early += float64(r.res.CertifiedEarly)
		attempts += float64(r.res.Attempts)
		decisions += float64(len(r.decideMS))
	}
	return map[string]float64{
		"ris.rr_drawn":                    ratio(drawn, n),
		"ris.sampling_ms":                 ratio(samplingNS/1e6, n),
		"ris.rr_per_s":                    ratio(drawn, samplingNS/1e9),
		"ris.edge_touches_per_set":        ratio(touches, drawn),
		"ris.reuse_frac":                  ratio(reused, drawn+reused),
		"ris.peak_mb":                     peak / (1 << 20),
		"bounds.certified_early_frac":     ratio(early, decisions),
		"bounds.looks_per_round":          ratio(attempts, decisions),
		"adaptive.select_ms_per_campaign": ratio(decideTotalMS-samplingNS/1e6, n),
	}
}

// checkOutcome checks one finished campaign: distinct seeds drawn from the
// targets, profit = spread − Σ cost recomputed from the cost model, and,
// when world is non-nil (static graph), spread = cascade.Spread of the
// seeds on the campaign's own realization.
func checkOutcome(led *ledger, inst *adaptive.Instance, res *adaptive.RunResult, world *cascade.Realization, idx int) {
	targets := make(map[graph.NodeID]bool, len(inst.Targets))
	for _, u := range inst.Targets {
		targets[u] = true
	}
	seen := make(map[graph.NodeID]bool, len(res.Seeds))
	valid := true
	c := 0.0
	for _, u := range res.Seeds {
		if seen[u] || !targets[u] {
			valid = false
		}
		seen[u] = true
		c += inst.Costs.Cost(u)
	}
	led.check(valid, "campaign %d: seeds %v repeat or leave the target set", idx, res.Seeds)
	want := float64(res.Spread) - c
	led.check(math.Abs(res.Profit-want) <= 1e-9*max(1, math.Abs(want)),
		"campaign %d: profit %v, spread − cost = %v", idx, res.Profit, want)
	if world != nil {
		s := cascade.Spread(world, res.Seeds)
		led.check(s == res.Spread, "campaign %d: spread %d, cascade.Spread on its realization %d", idx, res.Spread, s)
	}
}

// checkSameRuns checks that a repetition of the campaign list (or the
// traced pass) repeated the first one seed for seed.
func checkSameRuns(led *ledger, a, b []campaignRun) {
	for i := range a {
		if a[i].res == nil || b[i].res == nil {
			continue
		}
		led.check(slices.Equal(a[i].res.Seeds, b[i].res.Seeds) && a[i].res.Profit == b[i].res.Profit && len(a[i].decideMS) == len(b[i].decideMS),
			"campaign %d: repeated run seeded %v, first run %v", i, b[i].res.Seeds, a[i].res.Seeds)
	}
}
