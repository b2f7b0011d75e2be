package cluster

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"popstab"
	"popstab/internal/serve"
)

func quickSpec(seed uint64) popstab.Spec {
	return popstab.Spec{N: 4096, Tinner: 24, Seed: seed}
}

// testWorker is one in-process popserve the coordinator can route to.
type testWorker struct {
	m  *serve.Manager
	ts *httptest.Server
	id string
}

// newFleet registers n fresh workers with the coordinator.
func newFleet(t *testing.T, c *Coordinator, n int) []*testWorker {
	t.Helper()
	ws := make([]*testWorker, 0, n)
	for i := 0; i < n; i++ {
		m := serve.NewManager(serve.Config{MaxConcurrent: 2, StepQuantum: 16})
		ts := httptest.NewServer(serve.NewHandler(m))
		t.Cleanup(ts.Close)
		t.Cleanup(m.Close)
		reg, err := c.Register(RegisterRequest{URL: ts.URL, Readiness: m.Readiness()})
		if err != nil {
			t.Fatalf("register worker %d: %v", i, err)
		}
		ws = append(ws, &testWorker{m: m, ts: ts, id: reg.ID})
	}
	return ws
}

// heartbeat re-registers a worker with fresh readiness.
func (w *testWorker) heartbeat(t *testing.T, c *Coordinator) {
	t.Helper()
	if _, err := c.Register(RegisterRequest{URL: w.ts.URL, Readiness: w.m.Readiness()}); err != nil {
		t.Fatalf("heartbeat %s: %v", w.id, err)
	}
}

// waitFleetDone long-polls a coordinator session to done, tolerating the
// transient awaiting-failover window.
func waitFleetDone(t *testing.T, c *Coordinator, id string) serve.JobInfo {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		wr, err := c.Wait(context.Background(), id, "status=done&timeout=5s")
		if err == nil && wr.Reached {
			return wr.Info
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("session %s did not complete", id)
	return serve.JobInfo{}
}

// singleRun is the golden baseline: the same spec on a lone manager.
func singleRun(t *testing.T, spec popstab.Spec, rounds uint64) (serve.JobInfo, []byte) {
	t.Helper()
	m := serve.NewManager(serve.Config{MaxConcurrent: 2, StepQuantum: 16})
	defer m.Close()
	j, _, err := m.Submit(context.Background(), spec, rounds)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("baseline run did not complete: %+v", j.Info())
	}
	_, snap, err := j.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return j.Info(), snap
}

// TestFederatedSweepDedupe drives the acceptance sweep: 32 submissions of 8
// distinct specs against a two-worker fleet. The coordinator's index plus
// spec-hash affinity must collapse them to exactly 8 simulation runs
// fleet-wide, and every duplicate must come back marked deduped with the
// original's coordinator ID.
func TestFederatedSweepDedupe(t *testing.T) {
	c := NewCoordinator(Config{SweepInterval: -1})
	defer c.Close()
	ws := newFleet(t, c, 2)

	const distinct, total = 8, 32
	ctx := context.Background()
	ids := make(map[uint64]string, distinct)
	for i := 0; i < total; i++ {
		seed := uint64(i%distinct + 1)
		resp, err := c.Submit(ctx, serve.SubmitRequest{Spec: quickSpec(seed), Rounds: 48})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if first, ok := ids[seed]; !ok {
			ids[seed] = resp.ID
		} else {
			if !resp.Deduped {
				t.Errorf("submission %d (seed %d) was not deduped", i, seed)
			}
			if resp.ID != first {
				t.Errorf("duplicate of seed %d got ID %s, want %s", seed, resp.ID, first)
			}
		}
	}

	stats := make(map[uint64]serve.JobInfo, distinct)
	for seed, id := range ids {
		stats[seed] = waitFleetDone(t, c, id)
	}

	fm := c.Metrics(ctx)
	if fm.Fleet.SimRuns != distinct {
		t.Errorf("fleet sim_runs = %d, want %d (dedupe leaked duplicate runs)", fm.Fleet.SimRuns, distinct)
	}
	if fm.Coordinator.Submissions != total {
		t.Errorf("coordinator submissions = %d, want %d", fm.Coordinator.Submissions, total)
	}
	if fm.Coordinator.DedupeHits != total-distinct {
		t.Errorf("coordinator dedupe hits = %d, want %d", fm.Coordinator.DedupeHits, total-distinct)
	}
	// Both workers should have taken a share under affinity (8 hashes over
	// 2 workers collide onto one with probability 2^-7).
	if fm.Workers[ws[0].id].SimRuns == 0 && fm.Workers[ws[1].id].SimRuns == 0 {
		t.Error("no worker reported any runs")
	}

	// Federated stats match the single-process baseline exactly.
	for seed, info := range stats {
		want, _ := singleRun(t, quickSpec(seed), 48)
		if info.Stats != want.Stats {
			t.Errorf("seed %d fleet stats %+v != single-process %+v", seed, info.Stats, want.Stats)
		}
	}
}

// TestDrainMigrationIdentity is the migration half of the acceptance bar: a
// session drained off its worker mid-run must finish with stats AND snapshot
// bytes identical to the same spec on a single popserve.
func TestDrainMigrationIdentity(t *testing.T) {
	c := NewCoordinator(Config{SweepInterval: -1})
	defer c.Close()
	newFleet(t, c, 2)

	spec := quickSpec(99)
	const rounds = 96
	ctx := context.Background()
	resp, err := c.Submit(ctx, serve.SubmitRequest{Spec: spec, Rounds: rounds})
	if err != nil {
		t.Fatal(err)
	}

	// Drain the owning worker while the session is (likely still) running.
	c.mu.Lock()
	owner := c.sessions[resp.ID].workerID
	c.mu.Unlock()
	dr, err := c.Drain(ctx, owner)
	if err != nil {
		t.Fatal(err)
	}
	if dr.Migrated+dr.Replayed != 1 || len(dr.Errors) != 0 {
		t.Fatalf("drain moved %d/%d sessions with errors %v, want exactly one", dr.Migrated, dr.Replayed, dr.Errors)
	}
	c.mu.Lock()
	newOwner := c.sessions[resp.ID].workerID
	c.mu.Unlock()
	if newOwner == owner || newOwner == "" {
		t.Fatalf("session still on %q after draining %q", newOwner, owner)
	}

	info := waitFleetDone(t, c, resp.ID)
	// The restored job on the new worker is not content-addressed there,
	// but the coordinator's identity survives the move.
	if hash, _ := spec.Hash(); info.Hash != hash {
		t.Errorf("post-migration info hash %q, want %q", info.Hash, hash)
	}
	snap, err := c.Snapshot(ctx, resp.ID)
	if err != nil {
		t.Fatal(err)
	}

	wantInfo, wantSnap := singleRun(t, spec, rounds)
	if info.Stats != wantInfo.Stats {
		t.Errorf("migrated stats %+v != single-process %+v", info.Stats, wantInfo.Stats)
	}
	if string(snap.Snapshot) != string(wantSnap) {
		t.Errorf("migrated snapshot differs from single-process run (%d vs %d bytes)", len(snap.Snapshot), len(wantSnap))
	}

	// The drained worker is gone from the registry.
	for _, w := range c.Workers() {
		if w.ID == owner {
			t.Errorf("drained worker %s still registered", owner)
		}
	}
}

// TestDrainPausedSessionStaysPaused pins the restore-paused path: a paused
// session migrates parked and does not advance on its new worker.
func TestDrainPausedSessionStaysPaused(t *testing.T) {
	c := NewCoordinator(Config{SweepInterval: -1})
	defer c.Close()
	newFleet(t, c, 2)

	ctx := context.Background()
	resp, err := c.Submit(ctx, serve.SubmitRequest{Spec: quickSpec(7), Rounds: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Pause(ctx, resp.ID); err != nil {
		t.Fatal(err)
	}
	info, err := c.Info(ctx, resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	pausedAt := info.Stats.Round

	c.mu.Lock()
	owner := c.sessions[resp.ID].workerID
	c.mu.Unlock()
	if _, err := c.Drain(ctx, owner); err != nil {
		t.Fatal(err)
	}

	time.Sleep(50 * time.Millisecond) // would advance if the restore unpaused
	info, err = c.Info(ctx, resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != serve.StatusPaused || info.Stats.Round != pausedAt {
		t.Fatalf("after migration: status %s round %d, want paused at %d", info.Status, info.Stats.Round, pausedAt)
	}

	// And it resumes to completion on the new worker.
	if _, err := c.Resume(ctx, resp.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Step(ctx, resp.ID, 0); err == nil {
		t.Error("zero step accepted") // sanity: proxied errors still surface
	}
	final := waitFleetDone(t, c, resp.ID)
	if final.Stats.Round != 4096 {
		t.Errorf("resumed session finished at round %d, want 4096", final.Stats.Round)
	}
}

// TestHeartbeatExpiryFailover kills a worker without warning: the sweep must
// expire it and replay its sessions from source on the survivor, converging
// to the identical final state (determinism, DESIGN.md §8/§11).
func TestHeartbeatExpiryFailover(t *testing.T) {
	c := NewCoordinator(Config{WorkerTTL: 50 * time.Millisecond, SweepInterval: -1})
	defer c.Close()
	ws := newFleet(t, c, 2)

	spec := quickSpec(123)
	const rounds = 64
	ctx := context.Background()
	resp, err := c.Submit(ctx, serve.SubmitRequest{Spec: spec, Rounds: rounds})
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	owner := c.sessions[resp.ID].workerID
	c.mu.Unlock()

	// SIGKILL the owner: close its HTTP listener and let its heartbeat age
	// out while the survivor keeps beating.
	var survivor *testWorker
	for _, w := range ws {
		if w.id == owner {
			w.ts.Close()
		} else {
			survivor = w
		}
	}
	time.Sleep(60 * time.Millisecond)
	survivor.heartbeat(t, c)
	expired, failedOver := c.SweepNow()
	if expired != 1 || failedOver != 1 {
		t.Fatalf("sweep expired %d workers, failed over %d sessions; want 1 and 1", expired, failedOver)
	}

	c.mu.Lock()
	newOwner := c.sessions[resp.ID].workerID
	c.mu.Unlock()
	if newOwner != survivor.id {
		t.Fatalf("session on %q after failover, want survivor %s", newOwner, survivor.id)
	}

	info := waitFleetDone(t, c, resp.ID)
	want, _ := singleRun(t, spec, rounds)
	if info.Stats != want.Stats {
		t.Errorf("failed-over stats %+v != single-process %+v", info.Stats, want.Stats)
	}
	if fm := c.Metrics(ctx); fm.Coordinator.Failovers != 1 || fm.Coordinator.WorkersExpired != 1 {
		t.Errorf("metrics %+v, want 1 failover and 1 expired worker", fm.Coordinator)
	}
}

// TestResultStoreFollowsMigration pins the content-addressed store: after a
// completed session migrates, GET /v1/results/{hash} still resolves because
// the coordinator follows its session mapping rather than the worker caches.
func TestResultStoreFollowsMigration(t *testing.T) {
	c := NewCoordinator(Config{SweepInterval: -1})
	defer c.Close()
	newFleet(t, c, 2)

	spec := quickSpec(55)
	hash, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	resp, err := c.Submit(ctx, serve.SubmitRequest{Spec: spec, Rounds: 32})
	if err != nil {
		t.Fatal(err)
	}
	waitFleetDone(t, c, resp.ID)

	res, err := c.Result(ctx, hash)
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != resp.ID || len(res.Snapshot) == 0 {
		t.Fatalf("result %+v, want session %s with snapshot", res.Info, resp.ID)
	}

	c.mu.Lock()
	owner := c.sessions[resp.ID].workerID
	c.mu.Unlock()
	if _, err := c.Drain(ctx, owner); err != nil {
		t.Fatal(err)
	}
	res2, err := c.Result(ctx, hash)
	if err != nil {
		t.Fatalf("result after migration: %v", err)
	}
	if string(res2.Snapshot) != string(res.Snapshot) {
		t.Error("result snapshot changed across migration")
	}

	if _, err := c.Result(ctx, "no-such-hash"); err == nil || !strings.Contains(err.Error(), "no-such-hash") {
		t.Errorf("unknown hash error %v", err)
	}
}

// TestCoordinatorErrors pins the coordinator's own rejection surface.
func TestCoordinatorErrors(t *testing.T) {
	c := NewCoordinator(Config{SweepInterval: -1})
	defer c.Close()
	ctx := context.Background()

	// Empty fleet: no_workers, not a crash.
	if _, err := c.Submit(ctx, serve.SubmitRequest{Spec: quickSpec(1), Rounds: 8}); !isCode(err, serve.CodeNoWorkers) {
		t.Errorf("submit to empty fleet: %v, want %s", err, serve.CodeNoWorkers)
	}
	if rd := c.Readiness(); rd.Ready {
		t.Error("empty fleet reports ready")
	}
	if _, err := c.Drain(ctx, "w-999"); !isCode(err, serve.CodeUnknownWorker) {
		t.Errorf("drain unknown worker: %v, want %s", err, serve.CodeUnknownWorker)
	}
	if _, err := c.Register(RegisterRequest{}); err == nil {
		t.Error("register without URL accepted")
	}
	if _, err := c.Info(ctx, "c-404"); !isCode(err, serve.CodeUnknownSession) {
		t.Errorf("info on unknown session: %v, want %s", err, serve.CodeUnknownSession)
	}

	// A worker's envelope passes through verbatim: invalid spec stays 422.
	newFleet(t, c, 1)
	_, err := c.Submit(ctx, serve.SubmitRequest{Spec: popstab.Spec{N: 64}, Rounds: 8})
	if !isCode(err, serve.CodeInvalidSpec) {
		t.Errorf("invalid spec through the fleet: %v, want %s", err, serve.CodeInvalidSpec)
	}
}

// isCode reports whether err maps to the given envelope code.
func isCode(err error, code string) bool {
	return err != nil && serve.ErrorCode(err) == code
}

// TestRouterPolicies pins the routing contract: affinity by spec hash, and
// the least-loaded choice it falls back to for hashless restores.
func TestRouterPolicies(t *testing.T) {
	cands := []Candidate{
		{ID: "w-001", SlotsInUse: 4, Slots: 4, Ready: true},
		{ID: "w-002", SlotsInUse: 1, Slots: 4, Ready: true},
		{ID: "w-003", SlotsInUse: 0, Slots: 4, Ready: false},
	}

	t.Run("least-loaded", func(t *testing.T) {
		if got := leastLoaded(cands); cands[got].ID != "w-002" {
			t.Errorf("picked %s, want w-002 (lowest occupancy among ready)", cands[got].ID)
		}
		if got := leastLoaded(nil); got != -1 {
			t.Errorf("empty pick = %d, want -1", got)
		}
	})

	t.Run("affinity", func(t *testing.T) {
		hashes := make([]string, 64)
		for i := range hashes {
			hashes[i] = fmt.Sprintf("hash-%02d", i)
		}
		picks := map[string]string{}
		spread := map[string]int{}
		for _, h := range hashes {
			id := cands[affinity(cands, h)].ID
			picks[h] = id
			spread[id]++
		}
		// Stable: same hash, same worker, every time and in any order.
		rev := []Candidate{cands[2], cands[0], cands[1]}
		for _, h := range hashes {
			if got := rev[affinity(rev, h)].ID; got != picks[h] {
				t.Fatalf("hash %s remapped to %s under reordering, was %s", h, got, picks[h])
			}
		}
		if len(spread) < 2 {
			t.Errorf("64 hashes all landed on one worker: %v", spread)
		}
		// Minimal disruption: removing a worker only remaps its own hashes.
		two := []Candidate{cands[0], cands[1]}
		for _, h := range hashes {
			if picks[h] == "w-003" {
				continue
			}
			if got := two[affinity(two, h)].ID; got != picks[h] {
				t.Errorf("hash %s moved from %s to %s though its worker survived", h, picks[h], got)
			}
		}
		// Hashless restores fall back to least-loaded.
		if got := cands[affinity(cands, "")].ID; got != "w-002" {
			t.Errorf("hashless pick %s, want least-loaded w-002", got)
		}
		if got := affinity(nil, hashes[0]); got != -1 {
			t.Errorf("empty pick = %d, want -1", got)
		}
	})
}
