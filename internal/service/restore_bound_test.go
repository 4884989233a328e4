package service

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adaptive"
)

// adgCheckpoint checkpoints an ADG campaign after one round into dir and
// returns the file; replaying that round draws ADGTheta RR sets.
func adgCheckpoint(t *testing.T, reg *Registry, dir string) string {
	t.Helper()
	c, err := reg.StartCampaign("a1", testKey(), adaptive.AlgoADG, 31, true)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, stop, _, err := c.Step(); err != nil || stop {
		t.Fatalf("round 1: stop=%v err=%v", stop, err)
	}
	file, err := c.Checkpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	return file
}

// rewriteADGTheta sets the ADG θ the session blob of an undeltaed
// checkpoint file records and reseals the envelope with a valid CRC64,
// as a hand edit would.
func rewriteADGTheta(t *testing.T, file string, theta int64) {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	nl := bytes.IndexByte(data, '\n')
	blob := bytes.Clone(data[nl+1 : len(data)-ckptFooterLen])
	at := 8 + 4 + 8 + 8 // magic, version, fingerprint, delta count
	for range 2 {       // algorithm, sampling policy
		at += 8 + int(binary.LittleEndian.Uint64(blob[at:]))
	}
	at += 3*8 + 8 + 1 // ζ, ε, δ, workers, no-reuse
	if got := binary.LittleEndian.Uint64(blob[at:]); got != uint64(testSpec().ADGTheta) {
		t.Fatalf("blob layout not as expected: ADG θ reads %d", got)
	}
	binary.LittleEndian.PutUint64(blob[at:], uint64(theta))
	if err := os.WriteFile(file, sealEnvelope(data[:nl], blob), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreRefusesHugeTheta: an authentic envelope whose blob asks for
// θ = 2^40 RR sets is refused before its replay draws anything, and is
// not quarantined, since its bytes are intact.
func TestRestoreRefusesHugeTheta(t *testing.T) {
	reg := NewRegistry(testSpec(), 0)
	file := adgCheckpoint(t, reg, t.TempDir())
	rewriteADGTheta(t, file, 1<<40)
	c, info, err := reg.RestoreCampaign(file)
	if c != nil {
		c.Close()
		t.Fatal("restore of a 2^40-θ blob succeeded")
	}
	if err == nil || !strings.Contains(err.Error(), "theta") {
		t.Fatalf("restore error %v, want one naming theta", err)
	}
	if len(info.Quarantined) != 0 {
		t.Fatalf("intact envelope quarantined: %v", info.Quarantined)
	}
}

// TestRestoreReplayPollsStop: the poll a restore runs under reaches the
// replay's RR draw, and its error ends the restore there. The poll fires
// on its eighth call, past the per-candidate check and the replayed
// round's, in the middle of a draw the cap allows.
func TestRestoreReplayPollsStop(t *testing.T) {
	reg := NewRegistry(testSpec(), 0)
	file := adgCheckpoint(t, reg, t.TempDir())
	rewriteADGTheta(t, file, 1<<22)
	errStop := errors.New("stop")
	var polls atomic.Int32 // draw workers poll concurrently
	stop := func() error {
		if polls.Add(1) >= 8 {
			return errStop
		}
		return nil
	}
	c, _, err := reg.restoreCampaign(file, stop)
	if c != nil {
		c.Close()
		t.Fatalf("restore finished its replay after %d polls", polls.Load())
	}
	if !errors.Is(err, errStop) {
		t.Fatalf("restore error %v after %d polls, want the stop error", err, polls.Load())
	}
}

// TestDrainInterruptsRestoreReplay: a restore whose blob asks for 2^22
// RR sets, within the cap, ends with 503 on a Drain that starts while it
// replays; Server.drainStop is the poll restoreCampaign runs under
// (TestRestoreReplayPollsStop).
func TestDrainInterruptsRestoreReplay(t *testing.T) {
	reg := NewRegistry(testSpec(), 0)
	dir := t.TempDir()
	file := adgCheckpoint(t, reg, dir)
	rewriteADGTheta(t, file, 1<<22)
	srv := NewServer(reg, dir)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code := make(chan int, 1)
	go func() {
		resp, err := ts.Client().Post(ts.URL+"/v1/campaigns/restore", "application/json",
			strings.NewReader(`{"file":"`+filepath.Base(file)+`"}`))
		if err != nil {
			code <- 0
			return
		}
		resp.Body.Close()
		code <- resp.StatusCode
	}()
	time.Sleep(50 * time.Millisecond) // let the replay start drawing
	if _, err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-code:
		if got != http.StatusServiceUnavailable {
			t.Fatalf("restore answered %d, want %d", got, http.StatusServiceUnavailable)
		}
	case <-time.After(time.Minute):
		t.Fatal("the restore outlived the drain")
	}
}
