package serve

import (
	"bufio"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"popstab/internal/fault"
)

// Chaos tests: every named fault point armed in turn, with the invariants
// the failure model promises asserted after each — failed jobs land in
// StatusFailed with a stack, every pool slot comes back, no runner
// goroutine leaks, and the dedupe cache never answers with a corpse.

// assertNoSlotLeak fails the test if the manager still holds pool slots or
// counts active runners after the dust settles.
func assertNoSlotLeak(t *testing.T, m *Manager) {
	t.Helper()
	if !eventually(func() bool { return m.active.Load() == 0 && len(m.slots) == 0 }) {
		t.Fatalf("slot leak: %d active runners, %d slots held", m.active.Load(), len(m.slots))
	}
}

func TestPanicIsolatedIntoFailedStatus(t *testing.T) {
	faults := fault.NewSet()
	faults.Arm(fault.RunnerPanic, 1, errors.New("chaos: injected step panic"))
	m := NewManager(Config{MaxConcurrent: 2, StepQuantum: 16, Faults: faults})
	defer m.Close()

	j, _, err := m.Submit(context.Background(), quickSpec(90), 64)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	info := j.Info()
	if info.Status != StatusFailed {
		t.Fatalf("status %s, want failed", info.Status)
	}
	if !strings.Contains(info.Error, "runner panic") || !strings.Contains(info.Error, "chaos: injected step panic") {
		t.Fatalf("error lost the panic value: %q", info.Error)
	}
	if !strings.Contains(info.Error, "goroutine") {
		t.Fatalf("error lost the stack trace: %q", info.Error)
	}
	if mt := m.Metrics(); mt.Panics != 1 || mt.Failed != 1 {
		t.Fatalf("metrics %+v, want 1 panic / 1 failed", mt)
	}
	assertNoSlotLeak(t, m)

	// The corpse must not answer for its identity: an identical
	// resubmission runs fresh (fault charge is spent) and completes.
	r, deduped, err := m.Submit(context.Background(), quickSpec(90), 64)
	if err != nil {
		t.Fatal(err)
	}
	if deduped || r.ID() == j.ID() {
		t.Fatalf("resubmission deduped onto the failed job %s", j.ID())
	}
	waitDone(t, r)
	if info := r.Info(); info.Status != StatusDone {
		t.Fatalf("retry after panic finished %s: %s", info.Status, info.Error)
	}
}

// TestPanicStormNoLeaks is the leak-invariant storm: every job panics, and
// afterwards the pool, the active-runner gauge, and the goroutine count
// are all back to baseline.
func TestPanicStormNoLeaks(t *testing.T) {
	faults := fault.NewSet()
	faults.Arm(fault.RunnerPanic, -1, nil)
	m := NewManager(Config{MaxConcurrent: 4, StepQuantum: 16, MaxSessions: 64, Faults: faults})
	defer m.Close()
	baseline := runtime.NumGoroutine()

	const storm = 24
	jobs := make([]*Job, 0, storm)
	for i := 0; i < storm; i++ {
		j, _, err := m.Submit(context.Background(), quickSpec(uint64(100+i)), 64)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		waitDone(t, j)
		if st := j.Info().Status; st != StatusFailed {
			t.Fatalf("storm job %s finished %s, want failed", j.ID(), st)
		}
	}
	if mt := m.Metrics(); mt.Failed != storm || mt.Panics != storm {
		t.Fatalf("metrics %+v, want %d failed/panics", mt, storm)
	}
	assertNoSlotLeak(t, m)
	// Runner goroutines exit with their jobs; allow slack for the test
	// server machinery but not for 24 leaked runners.
	if !eventually(func() bool { return runtime.NumGoroutine() <= baseline+4 }) {
		t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
	}

	// The pool is healthy after the storm: disarm and run to completion.
	faults.Disarm(fault.RunnerPanic)
	j, _, err := m.Submit(context.Background(), quickSpec(999), 64)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if info := j.Info(); info.Status != StatusDone {
		t.Fatalf("post-storm job finished %s: %s", info.Status, info.Error)
	}
}

// TestSnapshotDeadlineUnderSlowStep pins deadline propagation: with
// latency injected into the step path, a Snapshot whose context expires
// first returns the context error instead of blocking on the quantum.
func TestSnapshotDeadlineUnderSlowStep(t *testing.T) {
	faults := fault.NewSet()
	faults.ArmDelay(fault.SlowStep, -1, 250*time.Millisecond)
	m := NewManager(Config{MaxConcurrent: 1, StepQuantum: 8, Faults: faults})
	defer m.Close()

	j, _, err := m.Submit(context.Background(), quickSpec(91), 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if !eventually(func() bool {
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.stepping
	}) {
		t.Fatal("job never entered a (slow) quantum")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, _, err := j.Snapshot(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("snapshot under slow step: %v, want deadline exceeded", err)
	}
	// With no deadline the same call waits out the quantum and succeeds.
	if _, _, err := j.Snapshot(context.Background()); err != nil {
		t.Fatalf("patient snapshot: %v", err)
	}
	faults.Disarm(fault.SlowStep)
}

// TestCheckpointEncodeFaultNonFatal pins "checkpoint failures are counted,
// not fatal": with snapshot encoding failing, jobs still run to completion
// and graceful shutdown still succeeds — only the error counter moves.
func TestCheckpointEncodeFaultNonFatal(t *testing.T) {
	faults := fault.NewSet()
	faults.Arm(fault.SnapshotEncode, -1, nil)
	m := NewManager(Config{
		MaxConcurrent: 2, StepQuantum: 16, Store: NewMemStore(),
		CheckpointEvery: 16, Faults: faults,
	})
	j, _, err := m.Submit(context.Background(), quickSpec(92), 64)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if info := j.Info(); info.Status != StatusDone {
		t.Fatalf("job finished %s with checkpointing down: %s", info.Status, info.Error)
	}
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown with checkpointing down: %v", err)
	}
	if mt := m.Metrics(); mt.CheckpointErrors == 0 || mt.Checkpoints != 0 {
		t.Fatalf("metrics %+v, want only checkpoint errors", mt)
	}
}

func TestAdmissionGateThrottles(t *testing.T) {
	m := NewManager(Config{MaxConcurrent: 2, StepQuantum: 16, SubmitRate: 0.01, SubmitBurst: 1})
	defer m.Close()
	if _, _, err := m.Submit(context.Background(), quickSpec(93), 32); err != nil {
		t.Fatalf("burst submission rejected: %v", err)
	}
	_, _, err := m.Submit(context.Background(), quickSpec(94), 32)
	var throttled *ThrottledError
	if !errors.As(err, &throttled) {
		t.Fatalf("over-rate submission: %v, want ThrottledError", err)
	}
	if throttled.RetryAfter <= 0 {
		t.Fatalf("throttle carried no Retry-After hint: %+v", throttled)
	}
	if mt := m.Metrics(); mt.Throttled != 1 {
		t.Fatalf("throttled metric %d, want 1", mt.Throttled)
	}
	// Dedupe hits answer from the cache and must NOT burn admission
	// tokens: the first job's identity still resolves while throttled.
	j, deduped, err := m.Submit(context.Background(), quickSpec(93), 32)
	if err != nil || !deduped {
		t.Fatalf("deduped submission throttled: deduped=%v err=%v", deduped, err)
	}
	waitDone(t, j)
}

func TestHTTPThrottleRetryAfter(t *testing.T) {
	m := NewManager(Config{MaxConcurrent: 2, StepQuantum: 16, SubmitRate: 0.01, SubmitBurst: 1})
	defer m.Close()
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()

	var sub SubmitResponse
	resp := post(t, ts, "/v1/sessions", SubmitRequest{Spec: quickSpec(95), Rounds: 32}, &sub)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("burst submission: HTTP %d", resp.StatusCode)
	}
	var e ErrorBody
	resp = post(t, ts, "/v1/sessions", SubmitRequest{Spec: quickSpec(96), Rounds: 32}, &e)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate submission: HTTP %d, want 429", resp.StatusCode)
	}
	if e.Error.Code != CodeThrottled {
		t.Fatalf("throttle envelope code %q, want %q", e.Error.Code, CodeThrottled)
	}
	if e.Error.RetryAfterMS <= 0 {
		t.Fatalf("throttle envelope retry_after_ms %d, want > 0", e.Error.RetryAfterMS)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After header %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
}

func TestHealthAndReadiness(t *testing.T) {
	m := NewManager(Config{MaxConcurrent: 2, StepQuantum: 16})
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()

	if resp := get(t, ts, "/v1/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/healthz: HTTP %d", resp.StatusCode)
	}
	// The unversioned aliases are gone: /v1 routes are the contract.
	if resp := get(t, ts, "/healthz", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /healthz (removed alias): HTTP %d, want 404", resp.StatusCode)
	}
	var rd Readiness
	if resp := get(t, ts, "/v1/readyz", &rd); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/readyz: HTTP %d", resp.StatusCode)
	}
	if !rd.Ready || rd.Draining || !rd.AdmissionOpen || rd.Slots == 0 {
		t.Fatalf("idle readiness %+v", rd)
	}

	// Draining flips readiness to 503 while liveness stays 200: the
	// process is healthy, it just must stop receiving traffic.
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if resp := get(t, ts, "/v1/readyz", &rd); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /v1/readyz: HTTP %d, want 503", resp.StatusCode)
	}
	if rd.Ready || !rd.Draining {
		t.Fatalf("draining readiness %+v", rd)
	}
	if resp := get(t, ts, "/v1/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("draining /v1/healthz: HTTP %d, want 200", resp.StatusCode)
	}
	// And submissions answer 503 draining, not a hang.
	var e ErrorBody
	if resp := post(t, ts, "/v1/sessions", SubmitRequest{Spec: quickSpec(97), Rounds: 8}, &e); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submission: HTTP %d, want 503", resp.StatusCode)
	}
	if e.Error.Code != CodeDraining {
		t.Fatalf("draining envelope code %q, want %q", e.Error.Code, CodeDraining)
	}
}

// TestStreamHeartbeatAndDisconnect pins the SSE robustness pair: an idle
// stream emits heartbeat comments on cadence, and a client disconnect
// tears the subscription down (freeing the fan-out slot) instead of
// leaking it.
func TestStreamHeartbeatAndDisconnect(t *testing.T) {
	saved := streamHeartbeat
	streamHeartbeat = 25 * time.Millisecond
	defer func() { streamHeartbeat = saved }()

	m := NewManager(Config{MaxConcurrent: 2, StepQuantum: 16})
	defer m.Close()
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()

	j, _, err := m.Submit(context.Background(), quickSpec(98), 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Pause(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !eventually(func() bool { return j.Info().Status == StatusPaused }) {
		t.Fatal("job did not park")
	}

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/sessions/"+j.ID()+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	sc := bufio.NewScanner(resp.Body)
	heartbeats := 0
	for sc.Scan() && heartbeats < 2 {
		if strings.HasPrefix(sc.Text(), ": heartbeat") {
			heartbeats++
		}
	}
	if heartbeats < 2 {
		t.Fatalf("idle stream produced %d heartbeats before EOF (scan err %v)", heartbeats, sc.Err())
	}

	subscribers := func() int {
		j.mu.Lock()
		defer j.mu.Unlock()
		return len(j.subs)
	}
	if subscribers() != 1 {
		t.Fatalf("%d subscribers while streaming, want 1", subscribers())
	}
	cancel() // client disconnect
	if !eventually(func() bool { return subscribers() == 0 }) {
		t.Fatal("subscription leaked after client disconnect")
	}
}

// TestStreamEndsOnDrain pins the shutdown half: an open stream ends when
// the manager drains, so http.Server.Shutdown is not held hostage by idle
// subscribers.
func TestStreamEndsOnDrain(t *testing.T) {
	m := NewManager(Config{MaxConcurrent: 2, StepQuantum: 16})
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()

	j, _, err := m.Submit(context.Background(), quickSpec(99), 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Pause(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !eventually(func() bool { return j.Info().Status == StatusPaused }) {
		t.Fatal("job did not park")
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/sessions/" + j.ID() + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	drained := make(chan error, 1)
	go func() { drained <- m.Shutdown(context.Background()) }()
	// The body must reach EOF promptly — the server ended the stream.
	done := make(chan struct{})
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("stream did not end on drain")
	}
	if err := <-drained; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestSubmitAfterCloseEveryPath sweeps the control surface of a drained
// manager: nothing hangs, everything answers ErrClosed/conflict.
func TestSubmitAfterCloseEveryPath(t *testing.T) {
	m := NewManager(Config{MaxConcurrent: 2, StepQuantum: 16})
	j, _, err := m.Submit(context.Background(), quickSpec(89), 32)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	m.Close()

	if _, _, err := m.Submit(context.Background(), quickSpec(88), 32); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after close: %v", err)
	}
	if _, err := m.Restore(context.Background(), quickSpec(88), []byte("x"), 32, false); !errors.Is(err, ErrClosed) {
		t.Fatalf("Restore after close: %v", err)
	}
	// A pre-drain handle still reads, and a cancelled caller context is
	// respected before any work happens.
	if _, ok := m.Get(j.ID()); !ok {
		t.Fatal("terminal job unreadable after drain")
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := m.Submit(cancelled, quickSpec(87), 32); !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit with cancelled ctx: %v", err)
	}
}
