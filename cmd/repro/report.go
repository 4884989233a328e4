package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/adaptive"
	"repro/internal/gen"
	"repro/internal/sweep"
)

// cmdReport turns one or more experiment result files — BENCH_*.json
// from `repro bench` and/or SWEEP_*.jsonl journals from `repro sweep` —
// into an EXPERIMENTS.md with the paper's Figures 2–4 style tables:
// realized profit, adaptive rounds, and RR-set sampling cost per
// algorithm × dataset × cost setting. Inputs sharing (scale, seed,
// sampler) are merged into one section with the diffusion model as a row
// dimension, so the committed IC and LT fixtures render into a single
// Table II layout. Regenerating from checked-in fixtures is
// deterministic, so CI can diff the output against the committed file.
func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	out := fs.String("out", "EXPERIMENTS.md", "output markdown file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	inputs := fs.Args()
	if len(inputs) == 0 {
		for _, pattern := range []string{"BENCH_*.json", "SWEEP_*.jsonl"} {
			matches, err := filepath.Glob(pattern)
			if err != nil {
				return err
			}
			inputs = append(inputs, matches...)
		}
	}
	if len(inputs) == 0 {
		return fmt.Errorf("report: no input files (pass BENCH_*.json / SWEEP_*.jsonl paths or run `repro bench` first)")
	}
	sort.Strings(inputs)
	var benches []*benchOutput
	var serveDocs []*serveBenchOutput
	for _, path := range inputs {
		b, sv, err := readBench(path)
		if err != nil {
			return err
		}
		if sv != nil {
			serveDocs = append(serveDocs, sv)
		} else {
			benches = append(benches, b)
		}
	}
	md := renderReport(benches, serveDocs, inputs)
	if err := os.WriteFile(*out, []byte(md), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "report: wrote %s from %d input file(s)\n", *out, len(inputs))
	return nil
}

// readBench loads one input as a benchOutput, converting sweep journals
// (detected by a leading spec record, regardless of extension) on the
// fly. Loadbench serving documents — detected by their kind tag, since
// their other fields overlap benchOutput's — are returned separately;
// each renders as its own section.
func readBench(path string) (*benchOutput, *serveBenchOutput, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	if isJournal(data) {
		records, err := sweep.ParseJournal(data)
		if err != nil {
			return nil, nil, fmt.Errorf("report: %s: %w", path, err)
		}
		b, err := journalToBench(records)
		if err != nil {
			return nil, nil, fmt.Errorf("report: %s: %w", path, err)
		}
		return b, nil, nil
	}
	var sv serveBenchOutput
	if err := json.Unmarshal(data, &sv); err == nil && sv.Kind == serveBenchKind {
		return nil, &sv, nil
	}
	var b benchOutput
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, nil, fmt.Errorf("report: %s: %w", path, err)
	}
	return &b, nil, nil
}

// isJournal reports whether the file's first line is a sweep spec record.
func isJournal(data []byte) bool {
	line := data
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		line = data[:i]
	}
	var rec struct {
		Type string `json:"type"`
	}
	return json.Unmarshal(line, &rec) == nil && rec.Type == "spec"
}

// journalToBench shapes a sweep journal like a bench document so both
// render through the same tables. Multi-model journals set Models; the
// per-record wall times sum into WallMS.
func journalToBench(records []sweep.Record) (*benchOutput, error) {
	spec, err := sweep.JournalSpec(records)
	if err != nil {
		return nil, err
	}
	cells, err := sweep.CellRecords(records)
	if err != nil {
		return nil, err
	}
	b := &benchOutput{
		Datasets:     spec.Datasets,
		Algos:        spec.Algos,
		CostSettings: spec.CostSettings,
		Models:       spec.Models,
		Scale:        spec.Scale,
		Seed:         spec.Seed,
		Sampler:      spec.Sampler,
	}
	for _, rec := range cells {
		b.WallMS += rec.ElapsedMS
		switch {
		case rec.Row != nil:
			b.Rows = append(b.Rows, rec.Row)
		case rec.Err != "":
			b.Errors = append(b.Errors, fmt.Sprintf("%s: %s", rec.Key, rec.Err))
		}
	}
	return b, nil
}

// metric extracts one table cell value from a row, already formatted.
type metric struct {
	title string // section heading, Figures 2–4 style
	note  string // one-line explanation under the heading
	cell  func(*resultRow) string
	// applies, when set, gates the whole table: a metric whose data no
	// row in the section carries (e.g. counters added after a fixture
	// was recorded) is omitted instead of rendering a table of dashes.
	applies func(*reportSection) bool
}

var reportMetrics = []metric{
	{
		title: "Profit",
		note: "Average realized profit ρ(S) = I_φ(S) − c(S) over the run's realizations " +
			"(paper Fig. 2; higher is better, adaptive policies should dominate the nonadaptive baselines).",
		cell: func(r *resultRow) string { return fmt.Sprintf("%.2f", r.AvgProfit) },
	},
	{
		title: "Rounds",
		note:  "Average seeding rounds until the stopping rule fires (paper Fig. 3; all-targets always seeds |T|).",
		cell:  func(r *resultRow) string { return fmt.Sprintf("%.1f", r.AvgRounds) },
	},
	{
		title: "RR sets drawn",
		note: "Reverse-reachable sets generated across the run (paper Fig. 4's sampling cost; " +
			"ADDATP's Hoeffding θ ∝ 1/ζ² makes it the most expensive policy).",
		cell: func(r *resultRow) string { return fmt.Sprintf("%d", r.RRDrawn) },
	},
	{
		title: "RR sets reused",
		note: "Draws avoided by cross-round reuse: sets that survived validity filtering " +
			"(Collection.Filter) and were counted toward a later θ target instead of being regenerated.",
		cell: func(r *resultRow) string { return fmt.Sprintf("%d", r.RRReused) },
	},
	{
		title: "RR throughput",
		note: "RR sets drawn per second of sampling wall time (drawn / sampling time; 0 for " +
			"exact-oracle runs that never sample). Machine-dependent, unlike the other metrics; " +
			"BENCH files capture its trajectory as the sampler hot path evolves.",
		cell: func(r *resultRow) string {
			if r.RRPerSec == 0 {
				return "—"
			}
			return fmt.Sprintf("%.2fM rr/s", r.RRPerSec/1e6)
		},
	},
	{
		title: "RR traffic model",
		note: "Bytes of sampler memory traffic behind one examined edge, " +
			"(4·touches + 17·visits)/touches, from the sampler's exact visit and " +
			"edge-touch counters (one 16-byte metadata entry and one visited-mask " +
			"byte per visit, one 4-byte adjacency word per touch). A locality model " +
			"derived from exact counters, not a hardware measurement; — for cells " +
			"recorded before the counters existed or that never sample.",
		applies: func(sec *reportSection) bool {
			for _, r := range sec.rows {
				if r.RREdgeTouches > 0 {
					return true
				}
			}
			return false
		},
		cell: func(r *resultRow) string {
			if r.RREdgeTouches == 0 {
				return "—"
			}
			return fmt.Sprintf("%.1f B/touch",
				(4*float64(r.RREdgeTouches)+17*float64(r.RRVisits))/float64(r.RREdgeTouches))
		},
	},
	{
		title: "Peak RR arena",
		note: "Largest RR-collection footprint (arena + offsets + roots + inverted index) " +
			"any realization reached; deterministic per seed.",
		cell: func(r *resultRow) string { return fmt.Sprintf("%.2f MiB", float64(r.RRPeakBytes)/(1<<20)) },
	},
	{
		title: "Stopping-rule telemetry",
		note: "Per-cell controller accounting, summed over realizations: certification looks " +
			"(stopping-rule evaluations), RR batches actually drawn, rounds certified below the " +
			"sampling frontier, and rounds that fell back to the point estimate. Sampling " +
			"policies only; — for oracle/nonadaptive algorithms.",
		cell: func(r *resultRow) string {
			if r.Attempts == 0 {
				if r.Fallbacks == 0 {
					return "—"
				}
				// Rows written before the telemetry columns existed carry
				// only the fallback count.
				return fmt.Sprintf("%d fallbacks", r.Fallbacks)
			}
			return fmt.Sprintf("%d looks · %d batches · %d early · %d fallbacks",
				r.Attempts, r.RRBatches, r.CertifiedEarly, r.Fallbacks)
		},
	},
}

// reportSection is one rendered section: every input sharing (scale,
// seed, sampler) merged into a single Table II layout with the diffusion
// model as a row dimension — IC and LT fixtures of one configuration
// render as one set of tables.
type reportSection struct {
	scale    float64
	seed     uint64
	sampler  string
	k        int
	models   []string
	datasets []string
	costs    []string
	algos    []string
	rows     map[string]*resultRow // dataset \x00 model \x00 cost \x00 algo
	reps     int
	wallMS   int64
	errors   []string
}

// benchModels returns the models a source covers in display form
// ("IC"/"LT"); bench documents carry one, sweep journals possibly many.
func benchModels(bench *benchOutput) []string {
	names := bench.Models
	if len(names) == 0 && bench.Model != "" {
		names = []string{bench.Model}
	}
	out := make([]string, 0, len(names))
	for _, name := range names {
		if m, err := sweep.ParseModel(name); err == nil {
			out = append(out, m.String())
		} else {
			out = append(out, name)
		}
	}
	return out
}

func appendUnique(dst []string, src ...string) []string {
	for _, s := range src {
		seen := false
		for _, d := range dst {
			if d == s {
				seen = true
				break
			}
		}
		if !seen {
			dst = append(dst, s)
		}
	}
	return dst
}

// mergeSections groups the inputs by (scale, seed, sampler, k, reps) in
// first-appearance order and merges each group's axes and rows. k and
// reps come from the source's rows: without them in the key, two benches
// of the same seed but different --k would silently overwrite each
// other's cells last-wins.
func mergeSections(benches []*benchOutput) []*reportSection {
	var sections []*reportSection
	byKey := make(map[string]*reportSection)
	for _, bench := range benches {
		k, reps := 0, 0
		if len(bench.Rows) > 0 {
			k, reps = bench.Rows[0].K, bench.Rows[0].Realizations
		}
		key := fmt.Sprintf("%g\x00%d\x00%s\x00%d\x00%d", bench.Scale, bench.Seed, bench.Sampler, k, reps)
		sec, ok := byKey[key]
		if !ok {
			sec = &reportSection{
				scale: bench.Scale, seed: bench.Seed, sampler: bench.Sampler, k: k,
				rows: make(map[string]*resultRow),
			}
			byKey[key] = sec
			sections = append(sections, sec)
		}
		bm := benchModels(bench)
		sec.models = appendUnique(sec.models, bm...)
		sec.datasets = appendUnique(sec.datasets, bench.Datasets...)
		sec.costs = appendUnique(sec.costs, bench.CostSettings...)
		sec.algos = appendUnique(sec.algos, bench.Algos...)
		sec.wallMS += bench.WallMS
		sec.errors = append(sec.errors, bench.Errors...)
		for _, r := range bench.Rows {
			model := r.Model
			if model == "" && len(bm) == 1 {
				// Rows written before the model column existed inherit the
				// document's single model.
				model = bm[0]
			}
			sec.rows[r.Dataset+"\x00"+model+"\x00"+r.CostSetting+"\x00"+r.Algo] = r
			sec.reps = r.Realizations
		}
	}
	return sections
}

// renderReport builds the full EXPERIMENTS.md document.
func renderReport(benches []*benchOutput, serveDocs []*serveBenchOutput, inputs []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# EXPERIMENTS\n\n")
	fmt.Fprintf(&b, "Generated by `repro report` from: %s. Do not edit by hand —\n", strings.Join(inputs, ", "))
	fmt.Fprintf(&b, "regenerate with `repro report --out EXPERIMENTS.md <BENCH_*.json | SWEEP_*.jsonl>`.\n\n")
	fmt.Fprintf(&b, "Each section reproduces the paper's Figures 2–4 measurements on the\n")
	fmt.Fprintf(&b, "Table II stand-in datasets; rows are dataset × diffusion model, columns\n")
	fmt.Fprintf(&b, "algorithms, one table per cost setting. Inputs sharing (scale, seed,\n")
	fmt.Fprintf(&b, "sampler) are merged into one section.\n")

	for _, sec := range mergeSections(benches) {
		models := rankOrder(sec.models, []string{"IC", "LT"})
		fmt.Fprintf(&b, "\n## models=%s scale=%g seed=%d", strings.Join(models, "+"), sec.scale, sec.seed)
		if sec.sampler != "" {
			fmt.Fprintf(&b, " sampler=%s", sec.sampler)
		}
		if sec.k > 0 {
			fmt.Fprintf(&b, " k=%d", sec.k)
		}
		fmt.Fprintf(&b, "\n\n")
		// len(sec.rows) rather than a running count: distinct sources can
		// legitimately re-measure the same cell, and the tables render the
		// merged (last-wins) view.
		fmt.Fprintf(&b, "%d row(s), %d realization(s) per cell, wall %dms.\n", len(sec.rows), sec.reps, sec.wallMS)

		// Datasets in Table II registry order, algorithms in CLI order.
		datasets := rankOrder(sec.datasets, datasetNames())
		algos := rankOrder(sec.algos, adaptive.Algorithms)
		for _, m := range reportMetrics {
			if m.applies != nil && !m.applies(sec) {
				continue
			}
			fmt.Fprintf(&b, "\n### %s\n\n%s\n", m.title, m.note)
			for _, cost := range sec.costs {
				fmt.Fprintf(&b, "\nCost setting: **%s**\n\n", cost)
				fmt.Fprintf(&b, "| dataset | %s |\n", strings.Join(algos, " | "))
				fmt.Fprintf(&b, "|---|%s\n", strings.Repeat("---|", len(algos)))
				for _, ds := range datasets {
					for _, model := range models {
						label := ds
						if len(models) > 1 {
							label = fmt.Sprintf("%s (%s)", ds, model)
						}
						cells := make([]string, len(algos))
						for i, algo := range algos {
							if r, ok := sec.rows[ds+"\x00"+model+"\x00"+cost+"\x00"+algo]; ok {
								cells[i] = m.cell(r)
							} else {
								cells[i] = "—"
							}
						}
						fmt.Fprintf(&b, "| %s | %s |\n", label, strings.Join(cells, " | "))
					}
				}
			}
		}
		if len(sec.errors) > 0 {
			fmt.Fprintf(&b, "\n### Errors\n\n")
			for _, e := range sec.errors {
				fmt.Fprintf(&b, "- %s\n", e)
			}
		}
	}
	renderSamplerComparison(&b, benches)
	renderServeThroughput(&b, serveDocs)
	return b.String()
}

// renderServeThroughput emits one section per loadbench document: the
// closed-loop serving rate and the step-request latency distribution of
// the in-process campaign server (`repro loadbench`). Machine-dependent:
// committed fixtures track the serving hot path's trajectory, not
// portable truth.
func renderServeThroughput(b *strings.Builder, docs []*serveBenchOutput) {
	for _, doc := range docs {
		fmt.Fprintf(b, "\n## Serving throughput: %s/%s/%s scale=%g\n\n", doc.Dataset, doc.Model, doc.Cost, doc.Scale)
		fmt.Fprintf(b, "Closed-loop load against the in-process campaign server (`repro loadbench`):\n")
		fmt.Fprintf(b, "each client repeatedly creates a campaign, steps it to completion over\n")
		fmt.Fprintf(b, "HTTP, and deletes it, all on one warm instance. Step latency is the\n")
		fmt.Fprintf(b, "next-seed decision as the client sees it — selection, simulated feedback,\n")
		fmt.Fprintf(b, "instrumentation, JSON, loopback sockets.\n\n")
		fmt.Fprintf(b, "| algo | k | clients | wall | campaigns | campaigns/s | steps/s | step p50 | p95 | p99 |\n")
		fmt.Fprintf(b, "|---|---|---|---|---|---|---|---|---|---|\n")
		fmt.Fprintf(b, "| %s | %d | %d | %.1fs | %d | %.1f | %.0f | %.3fms | %.3fms | %.3fms |\n",
			doc.Algo, doc.K, doc.Clients, doc.WallMS/1000, doc.Campaigns,
			doc.CampaignsPerSec, doc.StepsPerSec, doc.StepP50MS, doc.StepP95MS, doc.StepP99MS)
	}
}

// rowSampler normalizes a row's sampler label: rows written before the
// sampler column existed ran the fixed attempt loop.
func rowSampler(r *resultRow) string {
	if r.Sampler != "" {
		return r.Sampler
	}
	return adaptive.PolicyFixed
}

// renderSamplerComparison emits the sequential-vs-fixed RR-draw table when
// the input benches contain the same configuration run under both
// stopping rules — the A/B behind the sequential controller: same
// instance, same realizations, the draw counts and realized profits side
// by side.
func renderSamplerComparison(b *strings.Builder, benches []*benchOutput) {
	type pair struct{ seq, fixed *resultRow }
	pairs := make(map[string]*pair)
	var order []string
	for _, bench := range benches {
		for _, r := range bench.Rows {
			if r.Attempts == 0 && r.Fallbacks == 0 {
				continue // not a sampling policy; nothing to compare
			}
			key := fmt.Sprintf("%s · %s · %s · scale %g · seed %d · k %d · %d reps · %s",
				r.Dataset, r.CostSetting, r.Model, r.Scale, r.Seed, r.K, r.Realizations, r.Algo)
			p, ok := pairs[key]
			if !ok {
				p = &pair{}
				pairs[key] = p
				order = append(order, key)
			}
			switch rowSampler(r) {
			case adaptive.PolicySequential:
				p.seq = r
			case adaptive.PolicyFixed:
				p.fixed = r
			}
		}
	}
	any := false
	for _, key := range order {
		if p := pairs[key]; p.seq != nil && p.fixed != nil {
			any = true
		}
	}
	if !any {
		return
	}
	fmt.Fprintf(b, "\n## Sequential vs fixed sampling\n\n")
	fmt.Fprintf(b, "Configurations present under both stopping rules. `rr_drawn` is the total\n")
	fmt.Fprintf(b, "RR sets generated; the reduction is fixed/sequential. Profits are realized\n")
	fmt.Fprintf(b, "on the same realization pool (same seed), so differences are the policies'\n")
	fmt.Fprintf(b, "decisions plus sampling noise. Rows marked † had diverging instances\n")
	fmt.Fprintf(b, "(`--sampler` also pins IMM's target selection, which can pick different\n")
	fmt.Fprintf(b, "targets on some seeds); their profit columns are not directly comparable.\n\n")
	fmt.Fprintf(b, "| configuration | rr drawn (fixed) | rr drawn (seq) | reduction | profit (fixed) | profit (seq) | fallbacks (fixed → seq) |\n")
	fmt.Fprintf(b, "|---|---|---|---|---|---|---|\n")
	for _, key := range order {
		p := pairs[key]
		if p.seq == nil || p.fixed == nil {
			continue
		}
		red := "—"
		if p.seq.RRDrawn > 0 {
			red = fmt.Sprintf("%.1f×", float64(p.fixed.RRDrawn)/float64(p.seq.RRDrawn))
		}
		mark := ""
		if p.seq.Targets != p.fixed.Targets || p.seq.Budget != p.fixed.Budget {
			mark = " †"
		}
		fmt.Fprintf(b, "| %s%s | %d | %d | %s | %.2f | %.2f | %d → %d |\n",
			key, mark, p.fixed.RRDrawn, p.seq.RRDrawn, red,
			p.fixed.AvgProfit, p.seq.AvgProfit, p.fixed.Fallbacks, p.seq.Fallbacks)
	}
}

// datasetNames lists the registered stand-ins in Table II order.
func datasetNames() []string {
	names := make([]string, len(gen.Datasets))
	for i, d := range gen.Datasets {
		names[i] = d.Name
	}
	return names
}

// rankOrder returns names in the order they appear in known, names not in
// known last alphabetically, so tables are stable across bench invocations.
func rankOrder(names, known []string) []string {
	rank := make(map[string]int, len(known))
	for i, k := range known {
		rank[k] = i
	}
	out := append([]string(nil), names...)
	sort.SliceStable(out, func(i, j int) bool {
		ri, iok := rank[out[i]]
		rj, jok := rank[out[j]]
		switch {
		case iok && jok:
			return ri < rj
		case iok:
			return true
		case jok:
			return false
		default:
			return out[i] < out[j]
		}
	})
	return out
}
