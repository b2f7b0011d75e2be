package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"popstab/internal/serve"
)

// Session movement. Two paths, one correctness argument (DESIGN.md §11):
//
//   - Migration (planned, Drain): pause the session on the old worker, cut
//     a snapshot at a quantum boundary, restore it on an affinity-picked peer
//     with the outstanding rounds, and resume if it was running. The wire
//     codec round-trips engine state bit-identically (§8), so the migrated
//     run is byte-for-byte the run that would have happened in place.
//   - Failover (unplanned, sweep): the worker is gone, so there is nothing
//     to snapshot. Replay from the submission source instead — the original
//     spec (fresh submissions) or the originally submitted snapshot
//     (restores) — with the full accumulated round target. Determinism
//     (§8: trajectories are a pure function of spec + snapshot + rounds)
//     makes the replayed final state identical to the lost one.
//
// Both paths re-point the coordinator's session record; clients keep their
// coordinator ID and never observe the move, beyond a replayed session
// transiently reporting earlier rounds while it catches up.

// Drain migrates every session off a worker and deregisters it, so the
// process can be stopped without losing state. Sessions whose snapshot
// cannot be cut (worker already gone) are replayed from source; sessions
// that can do neither stay orphaned for the sweep to retry against future
// capacity.
func (c *Coordinator) Drain(ctx context.Context, workerID string) (DrainResponse, error) {
	c.mu.Lock()
	w, ok := c.workers[workerID]
	if !ok {
		c.mu.Unlock()
		return DrainResponse{}, &serve.APIError{
			Status: http.StatusNotFound,
			Code:   serve.CodeUnknownWorker,
			Err:    fmt.Errorf("cluster: unknown worker %s", workerID),
		}
	}
	w.draining = true
	owned := c.ownedSessionsLocked(workerID)
	c.mu.Unlock()

	resp := DrainResponse{Worker: workerID}
	for _, s := range owned {
		switch err := c.migrateSession(ctx, s); {
		case err == nil:
			c.migrations.Add(1)
			resp.Migrated++
		default:
			// Planned path failed (worker died mid-drain, no peer had
			// room, ...): fall back to source replay.
			if rerr := c.replaySession(ctx, s); rerr != nil {
				resp.Errors = append(resp.Errors, fmt.Sprintf("%s: %v", s.id, rerr))
				continue
			}
			c.failovers.Add(1)
			resp.Replayed++
		}
	}

	c.mu.Lock()
	delete(c.workers, workerID)
	delete(c.byURL, w.url)
	c.mu.Unlock()
	return resp, nil
}

// ownedSessionsLocked snapshots the sessions routed to a worker (caller
// holds c.mu).
func (c *Coordinator) ownedSessionsLocked(workerID string) []*session {
	var owned []*session
	for _, s := range c.sessions {
		if s.workerID == workerID {
			owned = append(owned, s)
		}
	}
	return owned
}

// migrateSession moves one live session over the snapshot path.
func (c *Coordinator) migrateSession(ctx context.Context, s *session) error {
	c.mu.Lock()
	oldW, ok := c.workers[s.workerID]
	c.mu.Unlock()
	if !ok {
		return errors.New("cluster: source worker gone")
	}
	base := oldW.url + "/v1/sessions/" + s.remoteID

	// Pause so the snapshot is the state the session stays at; remember
	// whether the pause is ours to undo on the new worker.
	var info serve.JobInfo
	if err := c.doJSON(ctx, http.MethodGet, base, nil, &info); err != nil {
		return err
	}
	wasRunning := info.Status != serve.StatusDone && info.Status != serve.StatusFailed && !s.paused
	if wasRunning {
		if err := c.doJSON(ctx, http.MethodPost, base+"/pause", nil, &info); err != nil {
			return err
		}
	}
	var snap serve.SnapshotResponse
	if err := c.doJSON(ctx, http.MethodGet, base+"/snapshot", nil, &snap); err != nil {
		return err
	}
	// Paused state is stable: re-read info for the exact round the
	// snapshot captured, so the restore target is the true remainder.
	if err := c.doJSON(ctx, http.MethodGet, base, nil, &info); err != nil {
		return err
	}
	remaining := uint64(0)
	if info.TargetRounds > info.Stats.Round {
		remaining = info.TargetRounds - info.Stats.Round
	}

	// Restore on a peer, parked; unpark only after the mapping is updated.
	_, err := c.placeRestore(ctx, s, serve.SubmitRequest{
		Spec: snap.Spec, Snapshot: snap.Snapshot, Rounds: remaining, Paused: true,
	}, s.workerID)
	if err != nil {
		if wasRunning {
			// Roll back: let it keep running where it is.
			var undo serve.JobInfo
			_ = c.doJSON(ctx, http.MethodPost, base+"/resume", nil, &undo)
		}
		return err
	}
	if wasRunning {
		c.mu.Lock()
		url, rid := "", ""
		if w, ok := c.workers[s.workerID]; ok {
			url, rid = w.url, s.remoteID
		}
		c.mu.Unlock()
		if url != "" {
			var undo serve.JobInfo
			_ = c.doJSON(ctx, http.MethodPost, url+"/v1/sessions/"+rid+"/resume", nil, &undo)
		}
	}
	return nil
}

// replaySession rebuilds a session from its submission source on a fresh
// worker (failover: the live state is lost, determinism recovers it).
func (c *Coordinator) replaySession(ctx context.Context, s *session) error {
	c.mu.Lock()
	rounds := s.submitRounds + s.extraRounds
	req := serve.SubmitRequest{Spec: s.spec, Rounds: rounds}
	if s.restoreSrc != nil {
		req.Snapshot = s.restoreSrc
		req.Paused = s.paused
	}
	paused := s.paused
	exclude := s.workerID
	c.mu.Unlock()

	if _, err := c.placeRestore(ctx, s, req, exclude); err != nil {
		return err
	}
	// Fresh submissions cannot be born paused (they enter the worker's
	// dedupe cache as normal runs); park the replay after the fact. The
	// rounds run in between are rounds the session would run on resume
	// anyway — determinism keeps the trajectory identical.
	if paused && s.restoreSrc == nil {
		var undo serve.JobInfo
		s2, url, rid, err := c.lookup(s.id)
		if err == nil && s2 == s {
			_ = c.doJSON(ctx, http.MethodPost, url+"/v1/sessions/"+rid+"/pause", nil, &undo)
		}
	}
	return nil
}

// placeRestore routes req to a worker other than exclude and re-points s at
// the job it lands on.
func (c *Coordinator) placeRestore(ctx context.Context, s *session, req serve.SubmitRequest, exclude string) (string, error) {
	c.mu.Lock()
	cands := c.candidatesLocked()
	hash := s.hash
	c.mu.Unlock()
	for i := 0; i < len(cands); i++ {
		if cands[i].ID == exclude {
			cands = append(cands[:i], cands[i+1:]...)
			break
		}
	}
	var lastErr error
	for len(cands) > 0 {
		i := affinity(cands, hash)
		if i < 0 {
			break
		}
		wID := cands[i].ID
		url, ok := c.workerURL(wID)
		if !ok {
			cands = append(cands[:i], cands[i+1:]...)
			continue
		}
		var resp serve.SubmitResponse
		if err := c.doJSON(ctx, http.MethodPost, url+"/v1/sessions", req, &resp); err != nil {
			lastErr = err
			if isUnreachable(err) {
				c.markUnreachable(wID)
				cands = append(cands[:i], cands[i+1:]...)
				continue
			}
			return "", err
		}
		c.mu.Lock()
		delete(c.byRemote, s.workerID+"/"+s.remoteID)
		s.workerID = wID
		s.remoteID = resp.ID
		s.lastInfo = resp.Info
		c.byRemote[wID+"/"+resp.ID] = s
		c.mu.Unlock()
		return resp.ID, nil
	}
	if lastErr != nil {
		return "", lastErr
	}
	return "", errNoWorkers()
}

// sweepLoop expires quiet workers on a cadence.
func (c *Coordinator) sweepLoop() {
	defer close(c.sweepDone)
	t := time.NewTicker(c.cfg.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-c.sweepStop:
			return
		case <-t.C:
			c.SweepNow()
		}
	}
}

// SweepNow runs one expiry/failover pass: workers whose heartbeat is older
// than WorkerTTL are dropped and their sessions replayed from source onto
// the survivors; previously orphaned sessions are retried too. Exported so
// tests and operators can force a pass.
func (c *Coordinator) SweepNow() (expired, failedOver int) {
	c.sweepMu.Lock()
	defer c.sweepMu.Unlock()

	cutoff := time.Now().Add(-c.cfg.WorkerTTL)
	var orphans []*session
	c.mu.Lock()
	for id, w := range c.workers {
		if w.draining || !w.lastSeen.Before(cutoff) {
			continue
		}
		delete(c.workers, id)
		delete(c.byURL, w.url)
		expired++
		c.workerExpired.Add(1)
		for _, s := range c.ownedSessionsLocked(id) {
			s.workerID = ""
			orphans = append(orphans, s)
		}
	}
	// Sessions orphaned by an earlier pass that found no capacity.
	for _, s := range c.sessions {
		if s.workerID == "" && !containsSession(orphans, s) {
			orphans = append(orphans, s)
		}
	}
	c.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, s := range orphans {
		if err := c.replaySession(ctx, s); err != nil {
			continue
		}
		c.failovers.Add(1)
		failedOver++
	}
	return expired, failedOver
}

// containsSession reports membership by identity.
func containsSession(list []*session, s *session) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}
