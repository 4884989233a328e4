package service

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/ris"
	"repro/internal/sweep"
)

// Key identifies one prepared experiment instance — everything
// sweep.Prepare's output depends on besides the registry's shared spec —
// plus a reported topology epoch. Registry entries are always epoch 0,
// the base (as-loaded) graph: a campaign's topology deltas live in its
// session (adaptive.Session owns its post-delta graph), so a mutated
// campaign keeps its base instance, and Epoch only reports how many
// deltas its session has applied (Status, MutateInfo, checkpoint header).
type Key struct {
	Dataset string  `json:"dataset"`
	Model   string  `json:"model"`
	Cost    string  `json:"cost"`
	Scale   float64 `json:"scale"`
	Epoch   int64   `json:"epoch,omitempty"`
}

func (k Key) String() string {
	s := fmt.Sprintf("%s/%s/%s@%g", k.Dataset, k.Model, k.Cost, k.Scale)
	if k.Epoch != 0 {
		s = fmt.Sprintf("%s#%d", s, k.Epoch)
	}
	return s
}

// validate rejects malformed keys before any expensive preparation.
func (k Key) validate() error {
	if _, err := gen.Lookup(k.Dataset); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	if _, err := sweep.ParseModel(k.Model); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	if _, err := sweep.ParseCostSetting(k.Cost); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	if k.Scale <= 0 {
		return fmt.Errorf("service: scale must be positive, got %g", k.Scale)
	}
	if k.Epoch != 0 {
		return fmt.Errorf("service: registry instances are epoch 0, got epoch %d (a campaign's mutations live in its session)", k.Epoch)
	}
	return nil
}

// Registry caches prepared instances with ref-counted sharing and LRU
// eviction of idle entries. Safe for concurrent use.
type Registry struct {
	base sweep.Spec // shared experiment parameters (K, seeds, θs, sampler…)
	max  int        // idle entries kept warm; <= 0 means unlimited

	// metrics, when attached (AttachMetrics, before serving), counts
	// prepares/evictions and exports occupancy gauges. Nil on bare
	// registries; every read is nil-checked.
	metrics *Metrics

	mu      sync.Mutex
	entries map[Key]*Instance
	clock   int64 // LRU stamp source
}

// NewRegistry builds a registry whose instances prepare with the shared
// parameters of base (defaults filled in); maxInstances bounds how many
// idle instances stay warm (<= 0: unlimited).
func NewRegistry(base sweep.Spec, maxInstances int) *Registry {
	base.SetDefaults()
	return &Registry{base: base, max: maxInstances, entries: make(map[Key]*Instance)}
}

// Spec returns a copy of the registry's shared experiment parameters.
func (r *Registry) Spec() sweep.Spec { return r.base }

// Instance is one cached preparation plus its warm-batcher pool.
// Preparation runs lazily on first Prepared call, exactly once across
// every concurrent acquirer.
type Instance struct {
	Key Key

	reg     *Registry
	once    sync.Once
	ready   atomic.Bool // set when once completed successfully
	prep    *sweep.Prepared
	prepErr error

	// guarded by reg.mu
	refs  int
	stamp int64

	bmu      sync.Mutex
	batchers []*ris.Batcher
}

// Acquire returns the instance for key, creating the entry if needed and
// bumping its refcount. The caller must Release it. Acquire itself is
// cheap — the expensive preparation happens on the first Prepared call.
// Any key with a nonzero Epoch is rejected (see Key).
func (r *Registry) Acquire(key Key) (*Instance, error) {
	if err := key.validate(); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	inst, ok := r.entries[key]
	if !ok {
		inst = &Instance{Key: key, reg: r}
		r.entries[key] = inst
	}
	// Ref and stamp the entry before any eviction sweep: a just-created
	// entry must never be its own oldest-idle eviction candidate.
	inst.refs++
	r.clock++
	inst.stamp = r.clock
	if !ok {
		r.evictLocked()
	}
	return inst, nil
}

// evictLocked drops least-recently-used idle entries until the *idle*
// population fits the configured maximum — the contract the
// -max-instances flag documents ("idle prepared instances kept warm").
// Entries with live references never leave and never count against the
// cap: a registry serving max live campaigns must not evict the one
// idle instance a just-finished campaign parked warm.
func (r *Registry) evictLocked() {
	if r.max <= 0 {
		return
	}
	type cand struct {
		key   Key
		stamp int64
	}
	var idle []cand
	for k, e := range r.entries {
		if e.refs == 0 {
			idle = append(idle, cand{k, e.stamp})
		}
	}
	if len(idle) <= r.max {
		return
	}
	sort.Slice(idle, func(i, j int) bool { return idle[i].stamp < idle[j].stamp })
	for _, c := range idle[:len(idle)-r.max] {
		delete(r.entries, c.key)
		if m := r.metrics; m != nil {
			m.evictions.Inc()
		}
	}
}

// Prepared returns the instance's preparation, running sweep.Prepare on
// the first call (once, even under concurrent acquirers). A failed
// preparation is sticky for the entry's lifetime; callers should Release
// on error, and the releasing of the last reference drops failed entries
// so a later Acquire can retry.
func (i *Instance) Prepared() (*sweep.Prepared, error) {
	i.once.Do(func() {
		if m := i.reg.metrics; m != nil {
			m.prepares.Inc()
		}
		// Fault-plane hook: a failed preparation is sticky until the last
		// reference releases (dropping the entry), so injected errors here
		// exercise the retry-on-next-Acquire path.
		if i.prepErr = fault.Check(fault.SiteRegistryPrepare); i.prepErr != nil {
			return
		}
		spec := i.reg.base // copy; Scale is per-key
		spec.Scale = i.Key.Scale
		i.prep, i.prepErr = sweep.Prepare(&spec, i.Key.Dataset, i.Key.Model, i.Key.Cost)
		if i.prepErr == nil {
			i.ready.Store(true)
		}
	})
	return i.prep, i.prepErr
}

// Release drops one reference. Failed entries are removed when their last
// reference goes, so transient preparation errors don't poison the key.
func (i *Instance) Release() {
	r := i.reg
	r.mu.Lock()
	defer r.mu.Unlock()
	if i.refs <= 0 {
		panic("service: Release without matching Acquire")
	}
	i.refs--
	if i.refs == 0 {
		if i.prepErr != nil {
			if r.entries[i.Key] == i {
				delete(r.entries, i.Key)
			}
			return
		}
		// The entry just went idle, so it now counts against the idle cap;
		// the LRU sweep must run here, not only on Acquire, or a busy
		// server releasing its last campaign never trims the warm set.
		r.evictLocked()
	}
}

// CheckoutBatcher hands out a warm batcher from the instance pool (or a
// fresh one). It is always Reset, so the caller sees empty, version-safe
// state with warm storage underneath.
func (i *Instance) CheckoutBatcher() (*ris.Batcher, error) {
	prep, err := i.Prepared()
	if err != nil {
		return nil, err
	}
	i.bmu.Lock()
	var b *ris.Batcher
	if n := len(i.batchers); n > 0 {
		b = i.batchers[n-1]
		i.batchers = i.batchers[:n-1]
	}
	i.bmu.Unlock()
	if b == nil {
		b = ris.NewBatcher(prep.Inst.Model)
	}
	b.Reset()
	return b, nil
}

// ReturnBatcher parks a batcher for the next campaign on this instance.
func (i *Instance) ReturnBatcher(b *ris.Batcher) {
	if b == nil {
		return
	}
	b.Reset() // drop interrupt hooks and stale sets immediately
	i.bmu.Lock()
	i.batchers = append(i.batchers, b)
	i.bmu.Unlock()
}

// InstanceInfo is the registry stats row the server exposes.
type InstanceInfo struct {
	Key      Key   `json:"key"`
	Refs     int   `json:"refs"`
	Prepared bool  `json:"prepared"`
	Warm     int   `json:"warm_batchers"`
	N        int   `json:"n,omitempty"`
	M        int64 `json:"m,omitempty"`
	Targets  int   `json:"targets,omitempty"`
	// FirstLookSets and FirstLookBytes size the instance's shared first
	// look (adaptive.Instance.FirstLook): the RR sets its campaigns copy
	// instead of drawing, counted in no campaign's rr_drawn.
	FirstLookSets  int   `json:"first_look_sets"`
	FirstLookBytes int64 `json:"first_look_bytes"`
}

// Stats snapshots the registry, sorted by key string for stable output.
func (r *Registry) Stats() []InstanceInfo {
	r.mu.Lock()
	entries := make([]*Instance, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	refs := make(map[*Instance]int, len(entries))
	for _, e := range entries {
		refs[e] = e.refs
	}
	r.mu.Unlock()

	out := make([]InstanceInfo, 0, len(entries))
	for _, e := range entries {
		info := InstanceInfo{Key: e.Key, Refs: refs[e]}
		e.bmu.Lock()
		info.Warm = len(e.batchers)
		e.bmu.Unlock()
		// Read the preparation only if it already happened: Stats must not
		// trigger (or wait on) an expensive Prepare.
		if p := e.preparedOrNil(); p != nil {
			info.Prepared = true
			info.N = p.G.N()
			info.M = p.G.M()
			info.Targets = len(p.Inst.Targets)
			info.FirstLookSets, info.FirstLookBytes = p.Inst.FirstLook()
		}
		out = append(out, info)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Key.String() < out[b].Key.String() })
	return out
}

// preparedOrNil returns the preparation iff it has already completed
// successfully, without triggering or waiting on one.
func (i *Instance) preparedOrNil() *sweep.Prepared {
	if !i.ready.Load() {
		return nil
	}
	return i.prep
}
