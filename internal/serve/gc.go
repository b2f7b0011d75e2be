package serve

import (
	"sort"
	"time"
)

// Session GC and eviction. Two pressures are relieved here:
//
//   - Time: terminal sessions (done, failed) are the result cache, but a
//     long-lived server must not remember every experiment forever.
//     SessionTTL bounds how long an untouched terminal session stays; the
//     janitor reaps it — registry entry, dedupe identity, and checkpoint
//     all removed. Reaped means gone: a later identical submission reruns.
//
//   - Memory: a resident session holds a full engine (agent arrays,
//     position side-arrays). Under registry pressure — a Submit at the
//     MaxSessions cap, or the janitor finding more than MaxResident
//     resident — the least-recently-touched *idle* sessions (done or
//     paused, never mid-run) are hibernated: a checkpoint is spilled to
//     the store, the engine is released, and the next Get revives the job
//     transparently from its checkpoint, bit-identically.
//
// Hibernation and reaping share the "parted" transition: the runner exits,
// stale handles refuse control calls with ErrHibernated, and the registry
// entry disappears. The difference is the tombstone: hibernated IDs stay
// in m.hibernated (revivable), reaped IDs are forgotten outright.

// janitor is the background GC loop, ended by Shutdown.
func (m *Manager) janitor() {
	t := time.NewTicker(m.cfg.GCInterval)
	defer t.Stop()
	for {
		select {
		case <-m.janitorStop:
			return
		case <-t.C:
			m.GC()
		}
	}
}

// GC runs one janitor pass — reap TTL-expired terminal sessions, hibernate
// residency overflow — and reports what it did. Exported so operators (and
// tests) can force a pass instead of waiting for the cadence.
func (m *Manager) GC() (reaped, hibernated int) {
	reaped = m.reapExpired()
	hibernated = m.hibernateOverflow()
	return reaped, hibernated
}

// reapExpired removes terminal sessions untouched for SessionTTL.
func (m *Manager) reapExpired() int {
	ttl := m.cfg.SessionTTL
	if ttl <= 0 {
		return 0
	}
	cutoff := time.Now().Add(-ttl).UnixNano()
	n := 0
	for _, j := range m.residents() {
		if j.lastTouch.Load() >= cutoff {
			continue
		}
		j.mu.Lock()
		terminal := (j.status == StatusDone || j.status == StatusFailed) &&
			!j.stepping && !j.parted
		// Re-check the touch stamp under the lock: a concurrent access
		// may have refreshed it after the first screen.
		if terminal && j.lastTouch.Load() < cutoff {
			if j.sess != nil { // a failed build never had one
				j.sess.Close() // release pool goroutines with the session
			}
			j.parted = true
			j.sess = nil
			j.cond.Broadcast()
			j.mu.Unlock()
			m.forget(j, false)
			m.recordReaped(j.id)
			j.dropCheckpoint()
			m.reaps.Add(1)
			n++
			continue
		}
		j.mu.Unlock()
	}
	return n
}

// hibernateOverflow spills LRU idle sessions while residency exceeds the
// watermark.
func (m *Manager) hibernateOverflow() int {
	if m.store == nil {
		return 0
	}
	n := 0
	for {
		m.mu.Lock()
		over := len(m.jobs) > m.cfg.MaxResident
		m.mu.Unlock()
		if !over || !m.hibernateOne() {
			return n
		}
		n++
	}
}

// hibernateOne spills the least-recently-touched idle session to the
// store, reporting whether it made room.
func (m *Manager) hibernateOne() bool {
	if m.store == nil {
		return false
	}
	cands := m.residents()
	sort.Slice(cands, func(i, k int) bool {
		return cands[i].lastTouch.Load() < cands[k].lastTouch.Load()
	})
	for _, j := range cands {
		if m.hibernate(j) {
			return true
		}
	}
	return false
}

// hibernate spills one job if it is idle: checkpoint to the store, release
// the engine, mark parted (the runner exits), tombstone the ID as
// revivable. The checkpoint write happens under j.mu so the captured state
// cannot be mutated (Step, Resume) between capture and persistence.
func (m *Manager) hibernate(j *Job) bool {
	j.mu.Lock()
	idle := (j.status == StatusDone || j.status == StatusPaused) &&
		!j.stepping && !j.parted
	if !idle {
		j.mu.Unlock()
		return false
	}
	cp := Checkpoint{
		ID:       j.id,
		Spec:     j.spec,
		Target:   j.target,
		Pending:  j.pending,
		Paused:   j.paused,
		Dedupe:   m.cachedLocked(j),
		Snapshot: j.sess.Snapshot(),
	}
	if err := m.store.Put(cp); err != nil {
		j.mu.Unlock()
		m.ckptErrors.Add(1)
		return false
	}
	j.sess.Close() // release pool goroutines with the hibernated session
	j.parted = true
	j.sess = nil
	j.cond.Broadcast()
	j.mu.Unlock()
	m.forget(j, true)
	m.checkpoints.Add(1)
	m.hibernations.Add(1)
	return true
}

// residents snapshots the registry's jobs.
func (m *Manager) residents() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	return jobs
}

// forget removes a parted job from the registry and dedupe cache;
// revivable tombstones the ID for transparent revival.
func (m *Manager) forget(j *Job, revivable bool) {
	m.mu.Lock()
	delete(m.jobs, j.id)
	if j.key != "" && m.byKey[j.key] == j {
		delete(m.byKey, j.key)
	}
	if revivable {
		m.hibernated[j.id] = true
	} else {
		delete(m.hibernated, j.id)
	}
	m.mu.Unlock()
}
