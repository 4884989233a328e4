package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adaptive"
	"repro/internal/cascade"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/ris"
	"repro/internal/rng"
	"repro/internal/sweep"
)

// Campaign is one live adaptive session plus its feedback source. All
// methods serialize on the campaign mutex; a Campaign outlives any single
// HTTP request.
type Campaign struct {
	ID       string
	Key      Key
	Algo     string
	Seed     uint64
	Simulate bool

	mu      sync.Mutex
	reg     *Registry
	inst    *Instance
	sess    *adaptive.Session
	env     *adaptive.Environment // nil in external-feedback mode
	batcher *ris.Batcher
	closed  bool

	// failErr, once set, marks the campaign permanently failed: a panic
	// inside an operation (caught by guard) or a voided session. Every
	// later operation answers with this error; Status reports the state
	// and captured stack so the failure is inspectable, and the daemon's
	// other campaigns keep serving.
	failErr   error
	failStack string

	// state mirrors the campaign's lifecycle phase as a lock-free word so
	// the metrics gather can count states without taking c.mu — a scrape
	// must never block behind a campaign wedged mid-step.
	state atomic.Int32

	// m plus the pre-resolved traffic handles and last-published batcher
	// readings make the per-step instrumentation epilogue allocation-free.
	// m is nil on campaigns opened from a bare (unattached) registry.
	m    *Metrics
	traf trafficCounters
	last ris.Stats
}

// Campaign lifecycle phases, as stored in Campaign.state.
const (
	campaignRunning int32 = iota
	campaignDone
	campaignFailed
)

// derivedPrepared clones a preparation around the session's post-delta
// instance. ImmRes stays the base preparation's: target selection
// happened on the base graph and is frozen for the campaign's lifetime.
func derivedPrepared(base *sweep.Prepared, sess *adaptive.Session) *sweep.Prepared {
	inst := sess.Instance()
	return &sweep.Prepared{G: inst.G, DS: base.DS, Inst: inst, ImmRes: base.ImmRes, SetupMS: base.SetupMS}
}

// StartCampaign acquires key's instance and opens a session for algo.
//
// The RNG discipline matches adaptive.RunExperiment exactly: one root
// stream from seed, a world split, then an algorithm split — the world
// split is consumed even in external-feedback mode, so a simulated and an
// external campaign with the same seed propose identical first seeds, and
// a simulated campaign with seed S+100 reproduces realization 0 of
// `repro run --seed S`.
func (r *Registry) StartCampaign(id string, key Key, algo string, seed uint64, simulate bool) (*Campaign, error) {
	inst, err := r.Acquire(key)
	if err != nil {
		return nil, err
	}
	c, err := r.openCampaign(inst, id, key, algo, seed, simulate, nil)
	if err != nil {
		inst.Release()
		return nil, err
	}
	return c, nil
}

// openCampaign builds the campaign around an already acquired instance.
// resume, when non-nil, restores the session from a checkpoint blob
// instead of starting fresh. Ownership of inst transfers on success only.
func (r *Registry) openCampaign(inst *Instance, id string, key Key, algo string, seed uint64, simulate bool, resume []byte) (*Campaign, error) {
	prep, err := inst.Prepared()
	if err != nil {
		return nil, err
	}
	b, err := inst.CheckoutBatcher()
	if err != nil {
		return nil, err
	}
	spec := r.Spec()
	opts := spec.RunOptions()
	opts.Batcher = b

	root := rng.New(seed)
	worldRNG := root.Split()
	var sess *adaptive.Session
	if resume == nil {
		algoRNG := root.Split()
		sess, err = adaptive.NewSession(prep.Inst, algo, opts, algoRNG)
	} else {
		// The session RNG state rides in the blob; only the world stream is
		// re-derived here, for the environment below.
		sess, err = adaptive.ResumeSession(prep.Inst, resume, adaptive.ResumeOptions{Batcher: b})
	}
	if err != nil {
		inst.ReturnBatcher(b)
		return nil, err
	}
	if sess.Algo() != algo {
		inst.ReturnBatcher(b)
		return nil, fmt.Errorf("service: checkpoint algorithm %q, campaign says %q", sess.Algo(), algo)
	}
	var env *adaptive.Environment
	if simulate {
		// The world is keyed by the base world stream, and a topology
		// delta keeps the key (Mutate), so a campaign restored after
		// mutations rebuilds its world on the replayed graph from the same
		// stream.
		rz := cascade.Sample(sess.Instance().G, prep.Inst.Model, worldRNG)
		// The session's residual already reflects every observation made
		// before the checkpoint, so the environment resumes in lockstep.
		env = adaptive.NewEnvironmentAt(rz, sess.CloneResidual(), sess.Spread())
	}
	if n := sess.Mutations(); n > 0 {
		// Re-home the campaign on the derived instance so its warm state
		// pools under the topology epoch, never the base key.
		dkey := key.base()
		dkey.Epoch = int64(n)
		derived := r.AdoptDerived(dkey, derivedPrepared(prep, sess))
		inst.Release()
		inst, key = derived, dkey
	}
	c := &Campaign{
		ID: id, Key: key, Algo: algo, Seed: seed, Simulate: simulate,
		reg: r, inst: inst, sess: sess, env: env, batcher: b,
	}
	if m := r.metrics; m != nil {
		c.m = m
		c.traf = m.trafficFor(key)
	}
	if sess.Done() {
		c.state.Store(campaignDone)
	}
	return c, nil
}

func (c *Campaign) failIfClosed() error {
	if c.closed {
		return fmt.Errorf("service: campaign %s is closed", c.ID)
	}
	if c.failErr != nil {
		return fmt.Errorf("service: campaign %s is failed: %w", c.ID, c.failErr)
	}
	return nil
}

// guard is the blast-radius boundary around every campaign operation:
// deferred under c.mu (after the unlock defer, so it runs first), it
// converts a panic into a permanent failed state — error and stack
// captured into the campaign, returned as a plain error — instead of
// letting it unwind through the daemon. It also latches a voided session
// (an engine error that destroyed replay determinism) as failure, so a
// campaign that can no longer make honest progress says so on every call
// rather than limping.
func (c *Campaign) guard(err *error) {
	if r := recover(); r != nil {
		c.failErr = fmt.Errorf("panic: %v", r)
		c.failStack = string(debug.Stack())
		c.state.Store(campaignFailed)
		*err = fmt.Errorf("service: campaign %s is failed: %w", c.ID, c.failErr)
		return
	}
	if c.failErr == nil && !c.closed && c.sess.Err() != nil {
		c.failErr = c.sess.Err()
		c.state.Store(campaignFailed)
	}
}

// finishStep is the instrumentation epilogue of every campaign advance,
// deferred under c.mu so it runs right after guard: it refreshes the
// lock-free state word and, when metrics are attached, records the step
// latency and bridges the batcher's traffic deltas into the
// instance-labeled counters. It must stay allocation-free — it sits
// inside the steady-state step loop the zero-alloc test pins.
func (c *Campaign) finishStep(start time.Time) {
	switch {
	case c.failErr != nil:
		c.state.Store(campaignFailed)
	case c.sess.Done():
		c.state.Store(campaignDone)
	}
	if c.m == nil {
		return
	}
	c.m.stepDur.Observe(time.Since(start).Seconds())
	c.publishTraffic()
}

// publishTraffic adds the batcher's accounting since the previous
// publish to the pre-resolved per-instance counters: the readings are
// monotone between campaign checkouts (CheckoutBatcher resets them), so
// the deltas are non-negative and four atomic adds suffice.
func (c *Campaign) publishTraffic() {
	if c.batcher == nil || c.traf.drawn == nil {
		return
	}
	st := c.batcher.Stats()
	publish(c.traf.drawn, st.RRDrawn, &c.last.RRDrawn)
	publish(c.traf.reused, st.RRReused, &c.last.RRReused)
	publish(c.traf.visits, st.RRVisits, &c.last.RRVisits)
	publish(c.traf.touches, st.RREdgeTouches, &c.last.RREdgeTouches)
}

// publish adds a reading's advance past *last to ctr and records it.
func publish(ctr *obs.Counter, v int64, last *int64) {
	if v > *last {
		ctr.Add(v - *last)
		*last = v
	}
}

// Next advances to the campaign's next proposal (external-feedback mode;
// in simulate mode use Step). Calling it again before Observe returns the
// same pending seed.
func (c *Campaign) Next() (seed graph.NodeID, stop bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	defer c.finishStep(time.Now())
	defer c.guard(&err)
	if err := c.failIfClosed(); err != nil {
		return 0, true, err
	}
	return c.sess.NextSeed()
}

// Observe feeds back the realized activations of the pending proposal
// (external-feedback mode).
func (c *Campaign) Observe(activated []graph.NodeID) (err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	defer c.finishStep(time.Now())
	defer c.guard(&err)
	if err := c.failIfClosed(); err != nil {
		return err
	}
	return c.sess.Observe(activated)
}

// Step runs one full propose-observe round against the campaign's own
// simulated realization (simulate mode only).
func (c *Campaign) Step() (seed graph.NodeID, stop bool, activated []graph.NodeID, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	defer c.finishStep(time.Now())
	defer c.guard(&err)
	if err := c.failIfClosed(); err != nil {
		return 0, true, nil, err
	}
	if c.env == nil {
		return 0, true, nil, fmt.Errorf("service: campaign %s runs on external feedback; use next/observe", c.ID)
	}
	u, stop, err := c.sess.NextSeed()
	if err != nil || stop {
		return 0, true, nil, err
	}
	a := c.env.Observe(u)
	if err := c.sess.Observe(a); err != nil {
		return 0, true, nil, err
	}
	return u, false, a, nil
}

// MutateInfo reports one applied topology delta.
type MutateInfo struct {
	Key      Key   `json:"key"`   // the campaign's new (epoch-bumped) key
	Epoch    int64 `json:"epoch"` // topology epoch after the delta
	Inserted int   `json:"inserted"`
	Deleted  int   `json:"deleted"`
	Touched  int   `json:"touched"` // nodes whose RR membership invalidates a set
}

// Mutate applies a topology delta to the live campaign between rounds:
// either the explicit edge lists, or — when churnPct > 0 — a generated
// churn delta replacing churnPct percent of the current edges
// (gen.ChurnDeltas seeded with churnSeed, deterministic and replayable).
// The session invalidates exactly the RR sets touching a changed edge
// (adaptive.Session.Mutate), the simulated environment keeps its world —
// the same key on the new graph, so only the coins of edges the delta
// touched and the LT parents of nodes whose in-list it changed can
// differ — and the campaign re-homes onto a derived registry instance
// keyed by the new topology epoch.
func (c *Campaign) Mutate(inserts, deletes []graph.Edge, churnPct float64, churnSeed uint64) (info *MutateInfo, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	defer c.guard(&err)
	if err := c.failIfClosed(); err != nil {
		return nil, err
	}
	if churnPct > 0 {
		if len(inserts)+len(deletes) > 0 {
			return nil, fmt.Errorf("service: mutate takes explicit edges or churn_pct, not both")
		}
		inserts, deletes = gen.ChurnDeltas(c.sess.Instance().G, churnPct/100, rng.New(churnSeed))
	} else if len(inserts)+len(deletes) == 0 {
		return nil, fmt.Errorf("service: empty mutation (give inserts/deletes or churn_pct > 0)")
	}
	dres, err := c.sess.Mutate(inserts, deletes)
	if err != nil {
		return nil, err
	}
	n := c.sess.Mutations()
	if c.env != nil {
		// openCampaign's base world stream: the same key on the new graph.
		rz := cascade.Sample(c.sess.Instance().G, c.sess.Instance().Model, rng.New(c.Seed).Split())
		c.env = adaptive.NewEnvironmentAt(rz, c.sess.CloneResidual(), c.sess.Spread())
	}
	// Re-home onto the epoch-keyed derived instance; the old reference
	// (base, or the previous epoch's) goes back to the registry.
	prep, err := c.inst.Prepared()
	if err != nil {
		return nil, err
	}
	dkey := c.Key.base()
	dkey.Epoch = int64(n)
	derived := c.reg.AdoptDerived(dkey, derivedPrepared(prep, c.sess))
	c.inst.Release()
	c.inst, c.Key = derived, dkey
	if c.m != nil {
		// Re-home the traffic series too: draws from here on belong to the
		// epoch-keyed instance. The last-published readings carry over — the
		// batcher's accounting is continuous across the mutation.
		c.traf = c.m.trafficFor(dkey)
	}
	return &MutateInfo{
		Key: dkey, Epoch: int64(n),
		Inserted: dres.Inserted, Deleted: dres.Deleted, Touched: len(dres.Touched),
	}, nil
}

// Status is the campaign's progress snapshot.
type Status struct {
	ID       string         `json:"id"`
	Key      Key            `json:"key"`
	Algo     string         `json:"algo"`
	Seed     uint64         `json:"seed"`
	Simulate bool           `json:"simulate"`
	Rounds   int            `json:"rounds"`
	Spread   int            `json:"spread"`
	Done     bool           `json:"done"`
	State    string         `json:"state"` // "running" | "done" | "failed"
	Error    string         `json:"error,omitempty"`
	Stack    string         `json:"stack,omitempty"`
	Pending  *graph.NodeID  `json:"pending,omitempty"`
	Seeds    []graph.NodeID `json:"seeds"`
}

// Status snapshots progress.
func (c *Campaign) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		ID: c.ID, Key: c.Key, Algo: c.Algo, Seed: c.Seed, Simulate: c.Simulate,
		Rounds: c.sess.Rounds(), Spread: c.sess.Spread(), Done: c.sess.Done(),
		Seeds: c.sess.Seeds(),
	}
	switch {
	case c.failErr != nil:
		st.State = "failed"
		st.Error = c.failErr.Error()
		st.Stack = c.failStack
	case st.Done:
		st.State = "done"
	default:
		st.State = "running"
	}
	if p, ok := c.sess.Pending(); ok {
		st.Pending = &p
	}
	return st
}

// Failed reports whether the campaign is in the permanent failed state.
func (c *Campaign) Failed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failErr != nil
}

// Result snapshots the campaign outcome in the batch RunResult shape.
func (c *Campaign) Result() *adaptive.RunResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sess.Result()
}

// Close releases the campaign's resources (warm batcher back to the
// instance pool, instance reference back to the registry). Idempotent.
func (c *Campaign) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	c.inst.ReturnBatcher(c.batcher)
	c.batcher = nil
	c.inst.Release()
}

// ckptHeader is the JSON first line of a campaign checkpoint file — the
// routing information Restore needs before it can rebuild the session
// from the binary blob that follows.
type ckptHeader struct {
	Version  int    `json:"version"`
	ID       string `json:"id"`
	Key      Key    `json:"key"`
	Algo     string `json:"algo"`
	Seed     uint64 `json:"seed"`
	Simulate bool   `json:"simulate"`
	Rounds   int    `json:"rounds"`
}

// Checkpoint envelope v2: header line, session blob, then a 16-byte
// footer — 8 magic bytes and a little-endian CRC64 (ECMA) of everything
// before the footer. The checksum makes a torn or bit-flipped file
// detectable at restore time instead of exploding (or, worse, resuming
// silently wrong) deep inside the session decoder; the magic keeps a
// truncated footer from being misread as a checksum. v1 envelopes (no
// footer) fail the integrity check and are quarantined; none were ever
// committed.
const (
	ckptEnvelopeVersion = 2
	ckptFooterLen       = 16
	// keepGenerations superseded checkpoints stay on disk next to the
	// current one, so a corrupt newest generation never strands the
	// campaign.
	keepGenerations = 2
)

var (
	ckptFooterMagic = [8]byte{'R', 'P', 'C', 'K', 'S', 'U', 'M', '2'}
	ckptCRCTable    = crc64.MakeTable(crc64.ECMA)

	// errCorruptCheckpoint marks integrity failures — the byte-level
	// damage restore quarantines and falls back from, as opposed to
	// authentic-but-unusable checkpoints (wrong build version, wrong
	// instance), where an older generation of the same campaign would
	// fail identically or silently rewind it.
	errCorruptCheckpoint = errors.New("corrupt checkpoint")

	// ckptRetry bounds the retry loop absorbing transient checkpoint
	// write failures. A var so tests can shrink the backoff.
	ckptRetry = fault.WritePolicy
)

// sealEnvelope assembles header + blob + checksum footer.
func sealEnvelope(hdr, blob []byte) []byte {
	buf := make([]byte, 0, len(hdr)+1+len(blob)+ckptFooterLen)
	buf = append(buf, hdr...)
	buf = append(buf, '\n')
	buf = append(buf, blob...)
	sum := crc64.Checksum(buf, ckptCRCTable)
	buf = append(buf, ckptFooterMagic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, sum)
	return buf
}

// openEnvelope verifies the footer and checksum of checkpoint bytes and
// splits them into header and blob. Integrity failures wrap
// errCorruptCheckpoint.
func openEnvelope(data []byte) (ckptHeader, []byte, error) {
	var hdr ckptHeader
	if len(data) < ckptFooterLen {
		return hdr, nil, fmt.Errorf("%w: %d bytes is shorter than the footer", errCorruptCheckpoint, len(data))
	}
	body, footer := data[:len(data)-ckptFooterLen], data[len(data)-ckptFooterLen:]
	if !bytes.Equal(footer[:8], ckptFooterMagic[:]) {
		return hdr, nil, fmt.Errorf("%w: footer magic missing (torn write, or a pre-v2 envelope)", errCorruptCheckpoint)
	}
	want := binary.LittleEndian.Uint64(footer[8:])
	if got := crc64.Checksum(body, ckptCRCTable); got != want {
		return hdr, nil, fmt.Errorf("%w: CRC64 mismatch (stored %#x, computed %#x)", errCorruptCheckpoint, want, got)
	}
	nl := bytes.IndexByte(body, '\n')
	if nl < 0 {
		return hdr, nil, fmt.Errorf("%w: no header line", errCorruptCheckpoint)
	}
	if err := json.Unmarshal(body[:nl], &hdr); err != nil {
		return hdr, nil, fmt.Errorf("%w: header does not parse: %v", errCorruptCheckpoint, err)
	}
	// Past this point the bytes are authentic: failures are compatibility
	// problems, not damage, and quarantine/fallback must not engage.
	if hdr.Version != ckptEnvelopeVersion {
		return hdr, nil, fmt.Errorf("service: envelope version %d not supported (this build reads %d)",
			hdr.Version, ckptEnvelopeVersion)
	}
	return hdr, body[nl+1:], nil
}

// Checkpoint writes the campaign to dir as campaign-<id>.ckpt and
// returns the path. The write is crash-only end to end: payload to a
// temp file, fsync, rotate the previous checkpoint into a numbered
// generation (campaign-<id>.ckpt.N), atomic rename over the final name,
// fsync of the directory — so at any kill point the directory holds the
// old checkpoint, the new one, or both, never a torn file under a final
// name. Transient write failures are retried with jittered backoff.
func (c *Campaign) Checkpoint(dir string) (path string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	defer c.guard(&err)
	if err := c.failIfClosed(); err != nil {
		return "", err
	}
	blob, err := c.sess.Checkpoint()
	if err != nil {
		return "", err
	}
	hdr, err := json.Marshal(ckptHeader{
		Version: ckptEnvelopeVersion, ID: c.ID, Key: c.Key, Algo: c.Algo,
		Seed: c.Seed, Simulate: c.Simulate, Rounds: c.sess.Rounds(),
	})
	if err != nil {
		return "", err
	}
	payload := sealEnvelope(hdr, blob)
	final := filepath.Join(dir, "campaign-"+c.ID+".ckpt")
	attempts := 0
	werr := ckptRetry.Retry(func() error {
		attempts++
		return writeCheckpointFile(dir, final, payload)
	})
	if c.m != nil {
		if attempts > 1 {
			c.m.ckptRetries.Add(int64(attempts - 1))
		}
		if werr != nil {
			c.m.ckptWriteErr.Inc()
		} else {
			c.m.ckptWriteOK.Inc()
		}
	}
	if werr != nil {
		return "", werr
	}
	return final, nil
}

// writeCheckpointFile is one full write attempt (retried as a unit).
func writeCheckpointFile(dir, final string, payload []byte) error {
	tmp, err := os.CreateTemp(dir, ".campaign-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	if _, err := fault.Write(fault.SiteCheckpointWrite, tmp, payload); err != nil {
		tmp.Close()
		return err
	}
	if err := fault.Check(fault.SiteCheckpointSync); err != nil {
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
	if err := fault.Check(fault.SiteCheckpointRename); err != nil {
		return err
	}
	if err := rotateGeneration(final); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		return err
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	pruneGenerations(final)
	return nil
}

// rotateGeneration moves an existing checkpoint under final into the
// next free generation slot final.<N> before the new one takes its name.
func rotateGeneration(final string) error {
	if _, err := os.Stat(final); err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	next := 1
	if gens := generations(final); len(gens) > 0 {
		next = gens[len(gens)-1].n + 1
	}
	return os.Rename(final, fmt.Sprintf("%s.%d", final, next))
}

type generation struct {
	n    int
	path string
}

// generations lists final's numbered generation files, ascending by
// number (newest last). Quarantined (.corrupt) and temp files never
// match the strictly numeric suffix.
func generations(final string) []generation {
	matches, _ := filepath.Glob(final + ".*")
	var gens []generation
	for _, m := range matches {
		suffix := m[len(final)+1:]
		n, err := strconv.Atoi(suffix)
		if err != nil || n <= 0 {
			continue
		}
		gens = append(gens, generation{n: n, path: m})
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i].n < gens[j].n })
	return gens
}

// pruneGenerations drops all but the newest keepGenerations superseded
// checkpoints. Best effort: a prune failure never fails the checkpoint
// that just landed.
func pruneGenerations(final string) {
	gens := generations(final)
	for i := 0; i < len(gens)-keepGenerations; i++ {
		_ = os.Remove(gens[i].path)
	}
}

// syncDir fsyncs a directory so a just-renamed file survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// RestoreInfo reports how a restore resolved: which file actually
// restored, and which corrupt candidates were quarantined aside (renamed
// to <name>.corrupt) along the way.
type RestoreInfo struct {
	File        string   `json:"restored_from"`
	Quarantined []string `json:"quarantined,omitempty"`
}

// RestoreCampaign verifies and resumes the campaign held in a checkpoint
// file: same ID, instance key, algorithm, seed, and mode, continuing
// bit-identically from where Checkpoint left it. A corrupt file —
// truncated, bit-flipped, torn — is quarantined aside (renamed
// <name>.corrupt, preserved for forensics) and the restore falls back to
// the newest valid generation (campaign-<id>.ckpt.N) instead of failing
// the campaign. The returned RestoreInfo says which file won and what
// was quarantined; the error reflects the *first* failure when no
// candidate restores.
func (r *Registry) RestoreCampaign(file string) (*Campaign, *RestoreInfo, error) {
	info := &RestoreInfo{}
	var firstErr error
	keep := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	candidates := []string{file}
	for gens := generations(file); len(gens) > 0; gens = gens[:len(gens)-1] {
		candidates = append(candidates, gens[len(gens)-1].path) // newest generation first
	}
	for _, cand := range candidates {
		data, err := os.ReadFile(cand)
		if err != nil {
			keep(err)
			continue
		}
		hdr, blob, err := openEnvelope(data)
		if err != nil {
			if errors.Is(err, errCorruptCheckpoint) {
				info.Quarantined = append(info.Quarantined, quarantine(cand))
				if m := r.metrics; m != nil {
					m.quarantines.Inc()
				}
				keep(fmt.Errorf("service: %s: %w", cand, err))
				continue
			}
			keep(fmt.Errorf("service: %s: %w", cand, err))
			continue
		}
		c, err := r.openFromEnvelope(cand, hdr, blob)
		if err != nil {
			keep(err)
			continue
		}
		info.File = cand
		if m := r.metrics; m != nil {
			if cand == file {
				m.restoreOK.Inc()
			} else {
				m.restoreFallback.Inc()
			}
		}
		return c, info, nil
	}
	if firstErr == nil {
		firstErr = fmt.Errorf("service: %s: no checkpoint found", file)
	}
	if m := r.metrics; m != nil {
		m.restoreErr.Inc()
	}
	return nil, info, firstErr
}

// quarantine moves a corrupt checkpoint aside so it can never shadow a
// valid generation again, returning the quarantine name (or, if the
// rename itself fails, the original name — read-only directories degrade
// to skipping, not wedging).
func quarantine(path string) string {
	q := path + ".corrupt"
	if err := os.Rename(path, q); err != nil {
		return path
	}
	return q
}

// openFromEnvelope resumes a session from verified checkpoint contents.
func (r *Registry) openFromEnvelope(file string, hdr ckptHeader, blob []byte) (*Campaign, error) {
	// Always restore through the base instance: the session blob carries
	// the delta log, and openCampaign replays it and re-adopts the derived
	// epoch key — a mutated campaign's graph cannot be Prepared from disk.
	inst, err := r.Acquire(hdr.Key.base())
	if err != nil {
		return nil, err
	}
	c, err := r.openCampaign(inst, hdr.ID, hdr.Key.base(), hdr.Algo, hdr.Seed, hdr.Simulate, blob)
	if err != nil {
		inst.Release()
		return nil, fmt.Errorf("service: %s: %w", file, err)
	}
	if c.Key.Epoch != hdr.Key.Epoch {
		c.Close()
		return nil, fmt.Errorf("service: %s: checkpoint says epoch %d, replayed session is at %d", file, hdr.Key.Epoch, c.Key.Epoch)
	}
	return c, nil
}
