package serve

import (
	"bytes"
	"context"
	"testing"
	"time"

	"popstab"
	"popstab/internal/fault"
)

// finalSnapshot fetches a done job's session snapshot — the bit-identity
// witness the golden tests compare.
func finalSnapshot(t *testing.T, j *Job) []byte {
	t.Helper()
	_, blob, err := j.Snapshot(context.Background())
	if err != nil {
		t.Fatalf("snapshot of %s: %v", j.ID(), err)
	}
	return blob
}

// referenceRun computes the uninterrupted run's final stats and snapshot.
func referenceRun(t *testing.T, spec popstab.Spec, rounds int) (popstab.SessionStats, []byte) {
	t.Helper()
	spec.Workers = 1
	sess, err := popstab.NewSessionFromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	stats := sess.Step(rounds)
	return stats, sess.Snapshot()
}

// killManager abandons a manager the way SIGKILL would: admissions stop
// and runners exit at their next between-quantum check, but NO final
// checkpoint is written — the store holds whatever the round cadence last
// persisted. (An expired context makes Shutdown skip the final-checkpoint
// phase; an in-flight quantum finishing first is equivalent to the kill
// landing a few rounds later.)
func killManager(t *testing.T, m *Manager) {
	t.Helper()
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	_ = m.Shutdown(expired)
	// Wait for the pool to actually quiesce so the test's next manager
	// reads a settled store.
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatalf("drain after kill: %v", err)
	}
}

// waitCheckpointProgress polls the store until a checkpoint for the spec's
// job exists with Pending in (0, target) — a mid-run durable cut.
func waitCheckpointProgress(t *testing.T, store CheckpointStore, id string) {
	t.Helper()
	if !eventually(func() bool {
		cp, ok, err := store.Get(id)
		return err == nil && ok && cp.Pending > 0 && cp.Pending < cp.Target
	}) {
		t.Fatalf("no mid-run checkpoint for %s appeared", id)
	}
}

// TestCrashRecoveryGoldenBitIdentical is the acceptance-criteria golden
// test: a SIGKILL-equivalent stop mid-run, rehydration from the filesystem
// CheckpointStore under a DIFFERENT worker count, and the continued run's
// final stats AND final session snapshot are byte-identical to an
// uninterrupted run.
func TestCrashRecoveryGoldenBitIdentical(t *testing.T) {
	const rounds = 288
	spec := popstab.Spec{N: 4096, Tinner: 24, Seed: 41, Adversary: "delete-random", K: 1}
	refStats, refSnap := referenceRun(t, spec, rounds)

	for _, workers := range []struct{ before, after int }{{1, 2}, {2, 1}} {
		store, err := NewFSStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		// Tight cadence so a mid-run checkpoint lands quickly.
		a := NewManager(Config{
			MaxConcurrent: 2, StepQuantum: 16, SessionWorkers: workers.before,
			Store: store, CheckpointEvery: 32,
		})
		j, _, err := a.Submit(context.Background(), spec, rounds)
		if err != nil {
			t.Fatal(err)
		}
		waitCheckpointProgress(t, store, j.ID())
		killManager(t, a)

		// The replacement process: same store, different worker count.
		b := NewManager(Config{
			MaxConcurrent: 2, StepQuantum: 16, SessionWorkers: workers.after,
			Store: store, CheckpointEvery: 32,
		})
		n, err := b.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if n != 1 {
			t.Fatalf("recovered %d jobs, want 1", n)
		}
		r, ok := b.Get(j.ID())
		if !ok {
			t.Fatalf("recovered job %s not resolvable", j.ID())
		}
		waitDone(t, r)
		info := r.Info()
		if info.Status != StatusDone {
			t.Fatalf("recovered job finished %s: %s", info.Status, info.Error)
		}
		if info.Stats != refStats {
			t.Fatalf("workers %d->%d: recovered stats diverged:\n got %+v\nwant %+v",
				workers.before, workers.after, info.Stats, refStats)
		}
		if !bytes.Equal(finalSnapshot(t, r), refSnap) {
			t.Fatalf("workers %d->%d: recovered final snapshot differs from uninterrupted run",
				workers.before, workers.after)
		}
		b.Close()
	}
}

// TestRecoveryUnderCheckpointWriteFaults pins the degraded-write invariant:
// with checkpoint writes failing (crash mid-write after the first durable
// cut), recovery falls back to an OLDER checkpoint and the continuation is
// still bit-identical.
func TestRecoveryUnderCheckpointWriteFaults(t *testing.T) {
	const rounds = 288
	spec := popstab.Spec{N: 4096, Tinner: 24, Seed: 43}
	refStats, refSnap := referenceRun(t, spec, rounds)

	store, err := NewFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Attached unarmed up front: the set itself is concurrency-safe, so
	// arming mid-run (below) needs no store mutation.
	faults := fault.NewSet()
	store.Faults = faults
	a := NewManager(Config{
		MaxConcurrent: 1, StepQuantum: 16, Store: store, CheckpointEvery: 32,
	})
	j, _, err := a.Submit(context.Background(), spec, rounds)
	if err != nil {
		t.Fatal(err)
	}
	waitCheckpointProgress(t, store, j.ID())
	cp, _, _ := store.Get(j.ID())

	// Every further durable write crashes mid-rename.
	faults.Arm(fault.CheckpointWrite, -1, nil)
	// Let the run progress past the surviving checkpoint, then kill.
	if !eventually(func() bool { return j.Info().Stats.Round > cp.Target-cp.Pending }) {
		t.Fatal("run made no progress past the surviving checkpoint")
	}
	killManager(t, a)
	if faults.Fired(fault.CheckpointWrite) == 0 {
		t.Fatal("checkpoint-write fault never fired; the scenario is vacuous")
	}
	faults.Disarm(fault.CheckpointWrite)

	surviving, ok, err := store.Get(j.ID())
	if !ok || err != nil {
		t.Fatalf("surviving checkpoint lost: ok=%v err=%v", ok, err)
	}
	if surviving.Pending != cp.Pending {
		t.Fatalf("surviving checkpoint advanced (pending %d -> %d) despite armed write fault",
			cp.Pending, surviving.Pending)
	}

	b := NewManager(Config{MaxConcurrent: 1, StepQuantum: 16, Store: store})
	if _, err := b.Recover(); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	r, ok := b.Get(j.ID())
	if !ok {
		t.Fatal("recovered job not resolvable")
	}
	waitDone(t, r)
	if info := r.Info(); info.Stats != refStats {
		t.Fatalf("recovery from stale checkpoint diverged:\n got %+v\nwant %+v", info.Stats, refStats)
	}
	if !bytes.Equal(finalSnapshot(t, r), refSnap) {
		t.Fatal("recovery from stale checkpoint: final snapshot differs")
	}
}

// TestGracefulShutdownCheckpointsAndResumes is the SIGTERM path: Shutdown
// checkpoints live sessions (including a paused one, which must come back
// paused), and a new manager resumes them to the bit-identical end state.
func TestGracefulShutdownCheckpointsAndResumes(t *testing.T) {
	const rounds = 288
	spec := popstab.Spec{N: 4096, Tinner: 24, Seed: 47}
	refStats, _ := referenceRun(t, spec, rounds)

	store := NewMemStore()
	a := NewManager(Config{MaxConcurrent: 2, StepQuantum: 16, Store: store, CheckpointEvery: 1 << 20})
	j, _, err := a.Submit(context.Background(), spec, rounds)
	if err != nil {
		t.Fatal(err)
	}
	if !eventually(func() bool { return j.Info().Stats.Round > 0 }) {
		t.Fatal("job made no progress")
	}
	if err := j.Pause(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !eventually(func() bool { return j.Info().Status == StatusPaused }) {
		t.Fatal("job did not park")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := a.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	cp, ok, err := store.Get(j.ID())
	if !ok || err != nil {
		t.Fatalf("shutdown wrote no checkpoint: ok=%v err=%v", ok, err)
	}
	if !cp.Paused || cp.Pending == 0 {
		t.Fatalf("checkpoint lost the parked state: %+v", cp)
	}

	b := NewManager(Config{MaxConcurrent: 2, StepQuantum: 16, Store: store})
	defer b.Close()
	if _, err := b.Recover(); err != nil {
		t.Fatal(err)
	}
	r, ok := b.Get(j.ID())
	if !ok {
		t.Fatal("recovered job not resolvable")
	}
	// Pausedness survived the restart.
	time.Sleep(50 * time.Millisecond)
	if info := r.Info(); info.Status == StatusDone {
		t.Fatalf("paused job ran to completion on its own: %+v", info)
	}
	if err := r.Resume(); err != nil {
		t.Fatal(err)
	}
	waitDone(t, r)
	if info := r.Info(); info.Stats != refStats {
		t.Fatalf("post-restart continuation diverged:\n got %+v\nwant %+v", info.Stats, refStats)
	}
}

// TestRecoveredJobRejoinsDedupe pins cache coherence across restarts: a
// job that answered for its (hash, rounds) identity rejoins the dedupe
// cache after recovery, so identical submissions attach instead of
// rerunning.
func TestRecoveredJobRejoinsDedupe(t *testing.T) {
	store := NewMemStore()
	a := NewManager(Config{MaxConcurrent: 2, StepQuantum: 16, Store: store})
	j, _, err := a.Submit(context.Background(), quickSpec(51), 64)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	a.Close() // graceful: final checkpoint includes the dedupe identity

	b := NewManager(Config{MaxConcurrent: 2, StepQuantum: 16, Store: store})
	defer b.Close()
	if _, err := b.Recover(); err != nil {
		t.Fatal(err)
	}
	r, deduped, err := b.Submit(context.Background(), quickSpec(51), 64)
	if err != nil {
		t.Fatal(err)
	}
	if !deduped || r.ID() != j.ID() {
		t.Fatalf("identical submission not deduped onto recovered job (got %s, deduped=%v)", r.ID(), deduped)
	}
}

// TestHibernateReviveTransparent pins capacity-pressure eviction: at the
// registry cap, submitting hibernates the least-recently-touched idle
// session, and the hibernated session revives transparently on Get with
// its state intact.
func TestHibernateReviveTransparent(t *testing.T) {
	m := NewManager(Config{
		MaxConcurrent: 2, StepQuantum: 16, MaxSessions: 2, Store: NewMemStore(),
	})
	defer m.Close()
	ctx := context.Background()

	a, _, err := m.Submit(ctx, quickSpec(60), 48)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, a)
	statsA := a.Info().Stats
	b, _, err := m.Submit(ctx, quickSpec(61), 48)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, b)
	b.Info() // touch: a is now the LRU idle session

	// The registry is full; this submission must hibernate a, not fail.
	c, _, err := m.Submit(ctx, quickSpec(62), 48)
	if err != nil {
		t.Fatalf("submission at capacity did not hibernate: %v", err)
	}
	waitDone(t, c)
	if mt := m.Metrics(); mt.Hibernated != 1 || mt.Sessions != 2 {
		t.Fatalf("metrics after pressure: %+v, want 1 hibernated / 2 resident", mt)
	}

	// Stale handles refuse control; the registry lookup revives.
	if err := a.Step(1); err != ErrHibernated {
		t.Fatalf("stale handle Step: %v, want ErrHibernated", err)
	}
	r, ok := m.Get(a.ID())
	if !ok {
		t.Fatalf("hibernated session %s not revivable", a.ID())
	}
	if !eventually(func() bool { return r.Info().Status == StatusDone }) {
		t.Fatalf("revived session did not settle: %+v", r.Info())
	}
	if got := r.Info().Stats; got != statsA {
		t.Fatalf("revived stats diverged:\n got %+v\nwant %+v", got, statsA)
	}
	if mt := m.Metrics(); mt.Revived != 1 {
		t.Fatalf("revived metric %d, want 1", mt.Revived)
	}
	// And the revived job answers for its dedupe identity again.
	d, deduped, err := m.Submit(ctx, quickSpec(60), 48)
	if err != nil {
		t.Fatal(err)
	}
	if !deduped || d.ID() != a.ID() {
		t.Fatalf("revived job lost its dedupe identity (got %s, deduped=%v)", d.ID(), deduped)
	}
}

// TestGCReapsExpiredTerminal pins TTL reaping: terminal sessions idle past
// SessionTTL are removed — registry, dedupe identity, and checkpoint.
func TestGCReapsExpiredTerminal(t *testing.T) {
	store := NewMemStore()
	m := NewManager(Config{
		MaxConcurrent: 2, StepQuantum: 16, Store: store,
		SessionTTL: 30 * time.Millisecond, GCInterval: time.Hour, // manual GC only
	})
	defer m.Close()
	j, _, err := m.Submit(context.Background(), quickSpec(70), 32)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if reaped, _ := m.GC(); reaped != 0 {
		t.Fatal("GC reaped a fresh session")
	}
	time.Sleep(60 * time.Millisecond)
	reaped, _ := m.GC()
	if reaped != 1 {
		t.Fatalf("GC reaped %d, want 1", reaped)
	}
	if _, ok := m.Get(j.ID()); ok {
		t.Fatal("reaped session still resolvable")
	}
	if _, ok, _ := store.Get(j.ID()); ok {
		t.Fatal("reaped session's checkpoint survived")
	}
	// Reaped means gone: the identity reruns fresh.
	r, deduped, err := m.Submit(context.Background(), quickSpec(70), 32)
	if err != nil || deduped {
		t.Fatalf("post-reap submission: deduped=%v err=%v", deduped, err)
	}
	waitDone(t, r)
}

// TestGCHibernatesOverResidency pins the janitor watermark: GC spills LRU
// idle sessions while residency exceeds MaxResident.
func TestGCHibernatesOverResidency(t *testing.T) {
	m := NewManager(Config{
		MaxConcurrent: 2, StepQuantum: 16, MaxSessions: 8, MaxResident: 1,
		Store: NewMemStore(), GCInterval: time.Hour,
	})
	defer m.Close()
	ids := make([]string, 3)
	for i := range ids {
		j, _, err := m.Submit(context.Background(), quickSpec(uint64(80+i)), 32)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		ids[i] = j.ID()
	}
	_, hibernated := m.GC()
	if hibernated != 2 {
		t.Fatalf("GC hibernated %d, want 2", hibernated)
	}
	if mt := m.Metrics(); mt.Sessions != 1 {
		t.Fatalf("%d resident after GC, want 1", mt.Sessions)
	}
	// Every session — resident or hibernated — still resolves.
	for _, id := range ids {
		if _, ok := m.Get(id); !ok {
			t.Errorf("session %s unresolvable after residency GC", id)
		}
	}
}
