package serve

import (
	"context"
	"runtime"
	"testing"

	"popstab"
)

// TestHibernateReleasesPoolGoroutines pins the session-lifecycle half of
// the engine's worker-pool contract: when the manager hibernates a session
// under registry pressure, the session's parked pool goroutines exit with
// it (gc.go closes the session before dropping the reference), so the
// process goroutine count tracks the number of RESIDENT sessions, not the
// number of sessions ever created.
func TestHibernateReleasesPoolGoroutines(t *testing.T) {
	// Workers 4 over N = 4096 engages the pool: up to 3 parked shard
	// workers per live session.
	m := NewManager(Config{
		MaxConcurrent: 1, StepQuantum: 16, MaxSessions: 1, Store: NewMemStore(),
		SessionWorkers: 4,
	})
	defer m.Close()
	ctx := context.Background()

	spec := popstab.Spec{N: 4096, Tinner: 24, Seed: 70}
	a, _, err := m.Submit(ctx, spec, 48)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, a)
	withOne := runtime.NumGoroutine()

	// The registry holds one session; this submission hibernates a.
	spec.Seed = 71
	b, _, err := m.Submit(ctx, spec, 48)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, b)
	if mt := m.Metrics(); mt.Hibernated != 1 || mt.Sessions != 1 {
		t.Fatalf("metrics after pressure: %+v, want 1 hibernated / 1 resident", mt)
	}

	// One resident session again — a's pool goroutines must be gone, so the
	// count settles back to (at most) the single-session level.
	if !eventually(func() bool { return runtime.NumGoroutine() <= withOne }) {
		t.Fatalf("goroutines did not settle after hibernate: %d, single-session level %d",
			runtime.NumGoroutine(), withOne)
	}
}
