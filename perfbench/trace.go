package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// campaign share its index; Parent is the index of the enclosing span in
// the tracer's list, -1 for a campaign root.
type span struct {
	Name     string `json:"name"`
	Campaign int    `json:"campaign"`
	Parent   int    `json:"parent"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer times calls and, when on, keeps each as a span in memory. When
// off it only measures: the runners still need step latencies.
type tracer struct {
	on bool
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// mark is an open span.
type mark struct {
	id    int // -1 when not recorded
	start time.Time
}

func (t *tracer) begin(name string, campaign, parent int) mark {
	now := time.Now()
	if !t.on {
		return mark{id: -1, start: now}
	}
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Campaign: campaign, Parent: parent, Start: now.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
	return mark{id: id, start: now}
}

// end closes m and returns its duration.
func (t *tracer) end(m mark) time.Duration {
	now := time.Now()
	if m.id >= 0 {
		t.mu.Lock()
		t.spans[m.id].End = now.Sub(t.t0).Nanoseconds()
		t.mu.Unlock()
	}
	return now.Sub(m.start)
}

// byName returns the durations of every span with the given name, in ms.
func (t *tracer) byName(name string) []float64 {
	var out []float64
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, ms(t.spans[i].dur()))
		}
	}
	return out
}

// perCampaign sums the named spans' durations per campaign, in ms, over
// the campaigns that have at least one.
func (t *tracer) perCampaign(name string) []float64 {
	sums := map[int]float64{}
	for i := range t.spans {
		if t.spans[i].Name == name {
			sums[t.spans[i].Campaign] += ms(t.spans[i].dur())
		}
	}
	out := make([]float64, 0, len(sums))
	for _, v := range sums {
		out = append(out, v)
	}
	return out
}

// layerTime is one row of the self-time breakdown.
type layerTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
	// Share is self time over the summed campaign time.
	Share float64 `json:"share"`
}

// breakdown computes every span name's self time: its duration minus the
// part its children cover. Children of one span never overlap (a campaign
// runs on one goroutine), so the covered part is the sum of the children
// clipped to the parent. Self times of all spans under the campaign roots
// add up to the campaign time exactly; the roots' own self time is the
// unattributed part.
func (t *tracer) breakdown() (rows []layerTime, unattributedFrac float64) {
	covered := make([]int64, len(t.spans))
	for i := range t.spans {
		s := &t.spans[i]
		if s.Parent < 0 {
			continue
		}
		p := &t.spans[s.Parent]
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			covered[s.Parent] += hi - lo
		}
	}
	idx := map[string]int{}
	var campaignNS, rootSelfNS int64
	for i := range t.spans {
		s := &t.spans[i]
		d := s.End - s.Start
		self := d - covered[i]
		if self < 0 {
			self = 0
		}
		j, ok := idx[s.Name]
		if !ok {
			j = len(rows)
			idx[s.Name] = j
			rows = append(rows, layerTime{Name: s.Name})
		}
		rows[j].Count++
		rows[j].TotalMS += float64(d) / 1e6
		rows[j].SelfMS += float64(self) / 1e6
		if s.Parent < 0 {
			campaignNS += d
			rootSelfNS += self
		}
	}
	for j := range rows {
		rows[j].Share = ratio(rows[j].SelfMS, float64(campaignNS)/1e6)
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].SelfMS > rows[b].SelfMS })
	return rows, ratio(float64(rootSelfNS), float64(campaignNS))
}

// writeTrace writes the spans and the breakdown as one JSON document and
// prints the breakdown to stderr.
func (t *tracer) writeTrace(dir, workload string, seed uint64, rows []layerTime, unattributed float64) error {
	logf("traced breakdown (self time share of campaign time; unattributed %.4f):", unattributed)
	for _, r := range rows {
		logf("  %-16s n=%-6d self=%10.2f ms  share=%.4f", r.Name, r.Count, r.SelfMS, r.Share)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	data, err := json.Marshal(map[string]any{
		"workload": workload, "seed": seed,
		"unattributed_frac": unattributed, "breakdown": rows, "spans": t.spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
