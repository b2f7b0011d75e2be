package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"popstab"
)

// quickSpec is a small, fast simulation: N=4096 (the model minimum) with
// the short subphase the experiment suite uses.
func quickSpec(seed uint64) popstab.Spec {
	return popstab.Spec{N: 4096, Tinner: 24, Seed: seed}
}

// waitDone blocks until the job completes or the test times out.
func waitDone(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not complete: %+v", j.ID(), j.Info())
	}
}

func TestManagerRunsToCompletion(t *testing.T) {
	m := NewManager(Config{MaxConcurrent: 2, StepQuantum: 32})
	defer m.Close()
	j, deduped, err := m.Submit(context.Background(), quickSpec(1), 100)
	if err != nil {
		t.Fatal(err)
	}
	if deduped {
		t.Fatal("first submission reported deduped")
	}
	waitDone(t, j)
	info := j.Info()
	if info.Status != StatusDone {
		t.Fatalf("status %s (err %q), want done", info.Status, info.Error)
	}
	if info.Stats.Round != 100 {
		t.Fatalf("ran %d rounds, want 100", info.Stats.Round)
	}
	if info.Stats.Size == 0 {
		t.Fatal("empty population after run")
	}
}

func TestManagerDedupe(t *testing.T) {
	m := NewManager(Config{MaxConcurrent: 2})
	defer m.Close()
	a, _, err := m.Submit(context.Background(), quickSpec(2), 50)
	if err != nil {
		t.Fatal(err)
	}
	// Identical spec, different Workers: same simulation, must dedupe.
	spec := quickSpec(2)
	spec.Workers = 4
	b, deduped, err := m.Submit(context.Background(), spec, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !deduped || b.ID() != a.ID() {
		t.Fatalf("identical submission not deduped (a=%s b=%s deduped=%v)", a.ID(), b.ID(), deduped)
	}
	// Different target rounds: a different job.
	c, deduped, err := m.Submit(context.Background(), quickSpec(2), 60)
	if err != nil {
		t.Fatal(err)
	}
	if deduped || c.ID() == a.ID() {
		t.Fatal("different round target wrongly deduped")
	}
	// A completed job keeps serving as the result cache.
	waitDone(t, a)
	d, deduped, err := m.Submit(context.Background(), quickSpec(2), 50)
	if err != nil {
		t.Fatal(err)
	}
	if !deduped || d.ID() != a.ID() {
		t.Fatal("completed job not served from the cache")
	}
	mt := m.Metrics()
	if mt.SimRuns != 2 || mt.DedupeHits != 2 || mt.Submissions != 4 {
		t.Fatalf("metrics %+v, want 2 runs / 2 hits / 4 submissions", mt)
	}
}

func TestManagerPauseResumeStep(t *testing.T) {
	m := NewManager(Config{MaxConcurrent: 1, StepQuantum: 16})
	defer m.Close()
	j, _, err := m.Submit(context.Background(), quickSpec(3), 0) // idle session, manual stepping
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j) // target 0 is immediately reached
	if err := j.Step(48); err != nil {
		t.Fatal(err)
	}
	if !eventually(func() bool { return j.Info().Stats.Round == 48 }) {
		t.Fatalf("manual step did not advance: %+v", j.Info())
	}
	if err := j.Pause(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := j.Step(16); err != nil {
		t.Fatal(err)
	}
	// Paused: the added budget must not run.
	time.Sleep(50 * time.Millisecond)
	if got := j.Info().Stats.Round; got != 48 {
		t.Fatalf("paused session advanced to round %d", got)
	}
	if err := j.Resume(); err != nil {
		t.Fatal(err)
	}
	if !eventually(func() bool { return j.Info().Stats.Round == 64 }) {
		t.Fatalf("resume did not drain the pending rounds: %+v", j.Info())
	}
}

// eventually polls cond for up to 30s.
func eventually(cond func() bool) bool {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return cond()
}

// TestStepEvictsDedupeEntry pins the revival contract: manually stepping a
// job past its submitted target removes it from the dedupe cache, so a
// later identical submission gets a FRESH run instead of the moved-on
// state.
func TestStepEvictsDedupeEntry(t *testing.T) {
	m := NewManager(Config{MaxConcurrent: 2, StepQuantum: 16})
	defer m.Close()
	a, _, err := m.Submit(context.Background(), quickSpec(30), 32)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, a)
	if err := a.Step(16); err != nil { // a now diverges from (hash, 32)
		t.Fatal(err)
	}
	b, deduped, err := m.Submit(context.Background(), quickSpec(30), 32)
	if err != nil {
		t.Fatal(err)
	}
	if deduped || b.ID() == a.ID() {
		t.Fatalf("submission after revival deduped onto the mutated job (a=%s b=%s)", a.ID(), b.ID())
	}
	waitDone(t, b)
	if got := b.Info().Stats.Round; got != 32 {
		t.Fatalf("fresh run finished at round %d, want 32", got)
	}
}

// TestFailedBuildNotCountedOrCached pins two metrics/cache properties: a
// job whose session build fails is not counted as a sim run, and its dedupe
// entry is evicted so a retry is not answered by the corpse forever. Every
// spec that hashes also builds, so the failing build here is a recovered
// checkpoint that holds its dedupe identity but whose snapshot does not
// restore.
func TestFailedBuildNotCountedOrCached(t *testing.T) {
	store := NewMemStore()
	spec := quickSpec(31)
	if err := store.Put(Checkpoint{ID: "s-000001", Spec: spec, Target: 10, Pending: 10,
		Dedupe: true, Snapshot: []byte("not a snapshot")}); err != nil {
		t.Fatal(err)
	}
	m := NewManager(Config{Store: store})
	defer m.Close()
	if n, err := m.Recover(); err != nil || n != 1 {
		t.Fatalf("Recover = %d, %v; want 1 job", n, err)
	}
	j, ok := m.Get("s-000001")
	if !ok {
		t.Fatal("recovered job not registered")
	}
	<-j.Done()
	if j.Info().Status != StatusFailed {
		t.Fatalf("status %s, want failed", j.Info().Status)
	}
	if runs := m.Metrics().SimRuns; runs != 0 {
		t.Errorf("failed build counted as %d sim runs", runs)
	}
	// The retry must be a fresh job, not the failed one.
	j2, deduped, err := m.Submit(context.Background(), spec, 10)
	if err != nil {
		t.Fatal(err)
	}
	if deduped || j2.ID() == j.ID() {
		t.Error("retry deduped onto the failed job")
	}
	waitDone(t, j2)
}

// TestRestoreThatCannotBuild pins the failed-restore path: a truncated
// snapshot, and a greedy-adversary snapshot restored under its spec at a
// different budget K, each yield a job whose first Info already reads failed
// with the restore error. The failure is counted as failed, not as a sim
// run, leaves no checkpoint behind, and does not stop a later valid restore
// of the same spec.
func TestRestoreThatCannotBuild(t *testing.T) {
	store := NewMemStore()
	m := NewManager(Config{Store: store, StepQuantum: 16})
	defer m.Close()
	ctx := context.Background()

	spec := popstab.Spec{N: 4096, Tinner: 24, Seed: 33, Adversary: "greedy", K: 2}
	src, err := popstab.NewSessionFromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	src.Step(40)
	blob := src.Snapshot()
	src.Close()
	otherK := spec
	otherK.K = 3

	for _, tc := range []struct {
		name string
		spec popstab.Spec
		blob []byte
		want string
	}{
		{"truncated", spec, blob[:len(blob)/2], "wire:"},
		{"budget-mismatch", otherK, blob, "budget K"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := m.Metrics()
			j, err := m.Restore(ctx, tc.spec, tc.blob, 16, false)
			if err != nil {
				t.Fatal(err)
			}
			info := j.Info()
			if info.Status != StatusFailed || !strings.Contains(info.Error, tc.want) {
				t.Fatalf("first Info: status %s, error %q; want failed with %q", info.Status, info.Error, tc.want)
			}
			after := m.Metrics()
			if after.Failed != before.Failed+1 || after.SimRuns != before.SimRuns {
				t.Errorf("metrics %+v -> %+v, want Failed +1 and SimRuns unchanged", before, after)
			}
			if _, ok, err := store.Get(j.ID()); ok || err != nil {
				t.Errorf("checkpoint of the failed job remains (ok %v, err %v)", ok, err)
			}
		})
	}

	j, err := m.Restore(ctx, spec, blob, 16, false)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if info := j.Info(); info.Status != StatusDone || info.Stats.Round != 56 {
		t.Fatalf("valid restore: status %s at round %d (%s), want done at 56", info.Status, info.Stats.Round, info.Error)
	}
}

// TestSessionWorkersOverrideSpec pins that a client's Workers never sizes a
// server pool: a spec asking for 2^20 workers runs at the manager's
// SessionWorkers, and it dedupes with the same spec at Workers 0.
func TestSessionWorkersOverrideSpec(t *testing.T) {
	m := NewManager(Config{SessionWorkers: 2, StepQuantum: 16})
	defer m.Close()
	ctx := context.Background()
	spec := quickSpec(34)
	spec.Workers = 1 << 20
	a, _, err := m.Submit(ctx, spec, 32)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Info().Spec.Workers; got != 2 {
		t.Fatalf("job runs at Workers %d, want the manager's 2", got)
	}
	b, deduped, err := m.Submit(ctx, quickSpec(34), 32)
	if err != nil {
		t.Fatal(err)
	}
	if !deduped || b.ID() != a.ID() {
		t.Fatalf("Workers 0 submission not deduped onto %s (got %s, deduped %v)", a.ID(), b.ID(), deduped)
	}
	waitDone(t, a)
}

// TestSubmitRejectsUnbuildableSpec pins the admission half of the spec
// contract: a spec that cannot build (a rogue extension without a
// replication period, a patch ball off the unit square, or a budget K
// above 4·N) never becomes a job and is answered with 422.
func TestSubmitRejectsUnbuildableSpec(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()
	for _, bad := range []popstab.Spec{
		{N: 4096, Tinner: 24, Seed: 31, Rogue: &popstab.RogueSpec{DetectProb: 1}},
		{N: 4096, Tinner: 24, Seed: 31, Topology: "torus", Adversary: "cluster-leader0",
			Patch: &popstab.BallSpec{X: -1}, K: 4, PerEpochBudget: 64},
		{N: 4096, Tinner: 24, Seed: 31, Adversary: "greedy", K: 4*4096 + 1},
	} {
		if _, _, err := m.Submit(context.Background(), bad, 10); !errors.Is(err, ErrInvalidSpec) {
			t.Fatalf("Submit error %v, want ErrInvalidSpec", err)
		}
		if n := len(m.List()); n != 0 {
			t.Errorf("%d jobs registered for a rejected spec", n)
		}
		var e ErrorBody
		if resp := post(t, ts, "/v1/sessions", SubmitRequest{Spec: bad, Rounds: 10}, &e); resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("unbuildable spec: status %d, want 422", resp.StatusCode)
		}
		if e.Error.Code != CodeInvalidSpec {
			t.Errorf("unbuildable spec envelope code %q, want %q", e.Error.Code, CodeInvalidSpec)
		}
	}
}

// TestManagerConcurrentSessions drives many concurrent submissions of a
// few distinct configs through a small pool and checks every session
// completes while the cache dedupes the repeats — the in-process form of
// the load smoke (examples/serve drives the same thing over HTTP).
func TestManagerConcurrentSessions(t *testing.T) {
	const (
		distinct = 8
		clients  = 64
		rounds   = 72
	)
	m := NewManager(Config{MaxConcurrent: 4, StepQuantum: 24})
	defer m.Close()
	var wg sync.WaitGroup
	jobs := make([]*Job, clients)
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			j, _, err := m.Submit(context.Background(), quickSpec(uint64(c%distinct)), rounds)
			if err != nil {
				errs[c] = err
				return
			}
			jobs[c] = j
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}
	for _, j := range jobs {
		waitDone(t, j)
		if info := j.Info(); info.Status != StatusDone || info.Stats.Round != rounds {
			t.Fatalf("job %s finished %+v", j.ID(), info)
		}
	}
	mt := m.Metrics()
	if mt.SimRuns != distinct {
		t.Errorf("ran %d simulations for %d distinct configs", mt.SimRuns, distinct)
	}
	if mt.DedupeHits != clients-distinct {
		t.Errorf("dedupe hits %d, want %d", mt.DedupeHits, clients-distinct)
	}
}

// --- HTTP round-trip -----------------------------------------------------

// post sends a JSON body and decodes a JSON response.
func post(t *testing.T, ts *httptest.Server, path string, body, out any) *http.Response {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", path, err)
		}
	}
	return resp
}

// get fetches and decodes a JSON response.
func get(t *testing.T, ts *httptest.Server, path string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", path, err)
		}
	}
	return resp
}

// TestHTTPSubmitStepSnapshotResume is the boot-and-probe smoke CI runs: a
// full client round-trip — submit, run, pause, snapshot over the wire,
// resume the snapshot as a NEW session, and verify the resumed session's
// continuation matches a straight run bit-for-bit (stats equality at the
// final round).
func TestHTTPSubmitStepSnapshotResume(t *testing.T) {
	m := NewManager(Config{MaxConcurrent: 2, StepQuantum: 16})
	defer m.Close()
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()

	spec := quickSpec(9)
	const (
		firstLeg  = 80
		secondLeg = 64
	)

	// Reference: one uninterrupted run of firstLeg+secondLeg rounds.
	var ref SubmitResponse
	post(t, ts, "/v1/sessions", SubmitRequest{Spec: spec, Rounds: firstLeg + secondLeg}, &ref)

	// Interrupted: run firstLeg, snapshot, resume as a new session.
	var sub SubmitResponse
	post(t, ts, "/v1/sessions", SubmitRequest{Spec: spec, Rounds: firstLeg}, &sub)
	if sub.Deduped {
		t.Fatal("distinct round target deduped")
	}
	waitHTTP(t, ts, sub.ID, firstLeg)

	var snap SnapshotResponse
	if resp := get(t, ts, "/v1/sessions/"+sub.ID+"/snapshot", &snap); resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status %d", resp.StatusCode)
	}
	if len(snap.Snapshot) == 0 {
		t.Fatal("empty snapshot")
	}

	var res SubmitResponse
	post(t, ts, "/v1/sessions", SubmitRequest{Spec: snap.Spec, Snapshot: snap.Snapshot, Rounds: secondLeg}, &res)
	if res.ID == sub.ID {
		t.Fatal("restore reused the source session")
	}
	waitHTTP(t, ts, res.ID, firstLeg+secondLeg)
	waitHTTP(t, ts, ref.ID, firstLeg+secondLeg)

	var a, b JobInfo
	get(t, ts, "/v1/sessions/"+ref.ID, &a)
	get(t, ts, "/v1/sessions/"+res.ID, &b)
	if a.Stats != b.Stats {
		t.Fatalf("resumed continuation diverged:\n ref %+v\n got %+v", a.Stats, b.Stats)
	}

	// Manual stepping drives the session past its original target.
	var stepped JobInfo
	post(t, ts, "/v1/sessions/"+res.ID+"/step", StepRequest{Rounds: 8}, &stepped)
	waitHTTP(t, ts, res.ID, firstLeg+secondLeg+8)

	// Metrics reflect three engine runs (ref, sub, restore) and no dedupe.
	var mt Metrics
	get(t, ts, "/v1/metrics", &mt)
	if mt.SimRuns != 3 || mt.DedupeHits != 0 {
		t.Fatalf("metrics %+v, want 3 runs / 0 hits", mt)
	}
}

// waitHTTP polls the session until its round counter reaches want.
func waitHTTP(t *testing.T, ts *httptest.Server, id string, want uint64) {
	t.Helper()
	var info JobInfo
	if !eventually(func() bool {
		get(t, ts, "/v1/sessions/"+id, &info)
		if info.Status == StatusFailed {
			t.Fatalf("session %s failed: %s", id, info.Error)
		}
		return info.Stats.Round >= want
	}) {
		t.Fatalf("session %s stuck at %+v, want round %d", id, info.Stats, want)
	}
}

// TestHTTPStream reads the SSE feed of a running session and requires at
// least one stats event and the done event.
func TestHTTPStream(t *testing.T) {
	m := NewManager(Config{MaxConcurrent: 1, StepQuantum: 16})
	defer m.Close()
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()

	var sub SubmitResponse
	post(t, ts, "/v1/sessions", SubmitRequest{Spec: quickSpec(10), Rounds: 96}, &sub)

	resp, err := http.Get(ts.URL + "/v1/sessions/" + sub.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	events := map[string]int{}
	sc := bufio.NewScanner(resp.Body)
	cur := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			events[cur]++
			if cur == "done" {
				goto done
			}
		}
	}
done:
	if events["stats"] == 0 {
		t.Errorf("no stats events before done (saw %v)", events)
	}
	if events["done"] != 1 {
		t.Errorf("done events %d, want 1 (saw %v)", events["done"], events)
	}
}

// TestHTTPStreamRevivedJob pins the stream-after-revival fix: a job whose
// first completion already closed Done() must still stream live stats (not
// an instant spurious "done") when revived by a manual step.
func TestHTTPStreamRevivedJob(t *testing.T) {
	m := NewManager(Config{MaxConcurrent: 1, StepQuantum: 16})
	defer m.Close()
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()

	var sub SubmitResponse
	post(t, ts, "/v1/sessions", SubmitRequest{Spec: quickSpec(11), Rounds: 32}, &sub)
	j, _ := m.Get(sub.ID)
	waitDone(t, j)

	// Revive paused so the stream deterministically connects mid-life.
	post(t, ts, "/v1/sessions/"+sub.ID+"/pause", struct{}{}, nil)
	post(t, ts, "/v1/sessions/"+sub.ID+"/step", StepRequest{Rounds: 64}, nil)

	resp, err := http.Get(ts.URL + "/v1/sessions/" + sub.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	go func() {
		r, err := http.Post(ts.URL+"/v1/sessions/"+sub.ID+"/resume", "application/json", strings.NewReader("{}"))
		if err == nil {
			r.Body.Close()
		}
	}()

	events := map[string]int{}
	var lastDone JobInfo
	sc := bufio.NewScanner(resp.Body)
	cur := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			events[cur]++
			if cur == "done" {
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &lastDone); err != nil {
					t.Fatal(err)
				}
				goto done
			}
		}
	}
done:
	if events["done"] != 1 {
		t.Fatalf("done events %d (saw %v)", events["done"], events)
	}
	// The spurious-done bug would report a running/queued status here with
	// the pre-revival round; the fix ends the stream only at the real end.
	if lastDone.Status != StatusDone || lastDone.Stats.Round != 96 {
		t.Errorf("done event carries %s at round %d, want done at 96", lastDone.Status, lastDone.Stats.Round)
	}
	if events["stats"] < 2 {
		t.Errorf("revived stream delivered %d stats events, want the live feed (saw %v)", events["stats"], events)
	}
}

// TestHTTPErrors pins the unified error surface: every non-2xx answer is
// the {"error":{"code","message"}} envelope with a stable machine-readable
// code, mapped from typed errors in exactly one place (statusOf).
func TestHTTPErrors(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()

	var e ErrorBody
	if resp := get(t, ts, "/v1/sessions/nope", &e); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown session: status %d", resp.StatusCode)
	}
	if e.Error.Code != CodeUnknownSession || e.Error.Message == "" {
		t.Errorf("unknown session envelope %+v, want code %q", e.Error, CodeUnknownSession)
	}

	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	e = ErrorBody{}
	if derr := json.NewDecoder(resp.Body).Decode(&e); derr != nil {
		t.Fatalf("bad body answer was not the envelope: %v", derr)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || e.Error.Code != CodeBadRequest {
		t.Errorf("bad body: status %d code %q", resp.StatusCode, e.Error.Code)
	}

	// N below the model minimum fails at hash time.
	e = ErrorBody{}
	if resp := post(t, ts, "/v1/sessions", SubmitRequest{Spec: popstab.Spec{N: 64}}, &e); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("invalid spec: status %d", resp.StatusCode)
	}
	if e.Error.Code != CodeInvalidSpec {
		t.Errorf("invalid spec envelope code %q, want %q", e.Error.Code, CodeInvalidSpec)
	}

	// Zero-round step is a request error, not a conflict.
	var sub SubmitResponse
	if resp := post(t, ts, "/v1/sessions", SubmitRequest{Spec: quickSpec(40), Rounds: 8}, &sub); resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	e = ErrorBody{}
	if resp := post(t, ts, "/v1/sessions/"+sub.ID+"/step", StepRequest{Rounds: 0}, &e); resp.StatusCode != http.StatusBadRequest || e.Error.Code != CodeBadRequest {
		t.Errorf("zero-round step: status %d code %q", resp.StatusCode, e.Error.Code)
	}

	// Unknown result hash.
	e = ErrorBody{}
	if resp := get(t, ts, "/v1/results/deadbeef", &e); resp.StatusCode != http.StatusNotFound || e.Error.Code != CodeUnknownResult {
		t.Errorf("unknown result: status %d code %q", resp.StatusCode, e.Error.Code)
	}
}

// TestHTTPExpiredSession pins 404-vs-410: an ID the janitor reaped answers
// 410 Gone with session_expired, distinguishable from a never-seen ID.
func TestHTTPExpiredSession(t *testing.T) {
	m := NewManager(Config{MaxConcurrent: 2, StepQuantum: 16, SessionTTL: time.Nanosecond, GCInterval: time.Hour})
	defer m.Close()
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()

	var sub SubmitResponse
	if resp := post(t, ts, "/v1/sessions", SubmitRequest{Spec: quickSpec(41), Rounds: 16}, &sub); resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	j, err := m.Lookup(sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	time.Sleep(2 * time.Millisecond) // idle past the nanosecond TTL
	if reaped, _ := m.GC(); reaped != 1 {
		t.Fatalf("GC reaped %d sessions, want 1", reaped)
	}

	var e ErrorBody
	if resp := get(t, ts, "/v1/sessions/"+sub.ID, &e); resp.StatusCode != http.StatusGone {
		t.Errorf("reaped session: status %d, want 410", resp.StatusCode)
	}
	if e.Error.Code != CodeSessionExpired {
		t.Errorf("reaped session envelope code %q, want %q", e.Error.Code, CodeSessionExpired)
	}
	e = ErrorBody{}
	if resp := get(t, ts, "/v1/sessions/never-existed", &e); resp.StatusCode != http.StatusNotFound || e.Error.Code != CodeUnknownSession {
		t.Errorf("unknown session: status %d code %q", resp.StatusCode, e.Error.Code)
	}
}

// TestHTTPWait pins the long-poll: it returns immediately when the status
// already holds, parks until a transition otherwise, reports timeouts as
// reached=false, and rejects bad parameters.
func TestHTTPWait(t *testing.T) {
	m := NewManager(Config{MaxConcurrent: 2, StepQuantum: 8})
	defer m.Close()
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()

	var sub SubmitResponse
	if resp := post(t, ts, "/v1/sessions", SubmitRequest{Spec: quickSpec(42), Rounds: 64}, &sub); resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}

	// Park until done: the session has real rounds to run first.
	var wr WaitResponse
	if resp := get(t, ts, "/v1/sessions/"+sub.ID+"/wait?status=done&timeout=30s", &wr); resp.StatusCode != http.StatusOK {
		t.Fatalf("wait: status %d", resp.StatusCode)
	}
	if !wr.Reached || wr.Info.Status != StatusDone || wr.Info.Stats.Round != 64 {
		t.Fatalf("wait answered %+v, want reached done at round 64", wr)
	}

	// Already-done short-circuits.
	if resp := get(t, ts, "/v1/sessions/"+sub.ID+"/wait", &wr); resp.StatusCode != http.StatusOK || !wr.Reached {
		t.Fatalf("wait on done session: status %d reached %v", resp.StatusCode, wr.Reached)
	}

	// A status the session will never reach again times out with
	// reached=false and the current info — a 200, the client re-polls.
	if resp := get(t, ts, "/v1/sessions/"+sub.ID+"/wait?status=running&timeout=50ms", &wr); resp.StatusCode != http.StatusOK {
		t.Fatalf("wait timeout: status %d", resp.StatusCode)
	}
	if wr.Reached || wr.Info.Status != StatusDone {
		t.Fatalf("timed-out wait answered %+v, want reached=false done", wr)
	}

	// Parameter validation.
	var e ErrorBody
	if resp := get(t, ts, "/v1/sessions/"+sub.ID+"/wait?status=bogus", &e); resp.StatusCode != http.StatusBadRequest || e.Error.Code != CodeBadRequest {
		t.Errorf("bad status: status %d code %q", resp.StatusCode, e.Error.Code)
	}
	if resp := get(t, ts, "/v1/sessions/"+sub.ID+"/wait?timeout=banana", &e); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad timeout: status %d", resp.StatusCode)
	}
}

// TestHTTPResultByHash pins the content-addressed result store: a finished
// run answers under its spec hash with a restorable snapshot; a known but
// unfinished hash answers result_pending.
func TestHTTPResultByHash(t *testing.T) {
	m := NewManager(Config{MaxConcurrent: 2, StepQuantum: 16})
	defer m.Close()
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()

	spec := quickSpec(43)
	hash, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	var sub SubmitResponse
	if resp := post(t, ts, "/v1/sessions", SubmitRequest{Spec: spec, Rounds: 32}, &sub); resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	j, err := m.Lookup(sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)

	var res ResultResponse
	if resp := get(t, ts, "/v1/results/"+hash, &res); resp.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d", resp.StatusCode)
	}
	if res.Hash != hash || res.ID != sub.ID || len(res.Snapshot) == 0 || res.Info.Stats.Round != 32 {
		t.Fatalf("result %+v, want the finished run with its snapshot", res.Info)
	}
	// The returned snapshot restores to the identical state.
	var re SubmitResponse
	if resp := post(t, ts, "/v1/sessions", SubmitRequest{Spec: res.Spec, Snapshot: res.Snapshot, Rounds: 0}, &re); resp.StatusCode != http.StatusOK {
		t.Fatalf("restore of result snapshot: status %d", resp.StatusCode)
	}
	rj, err := m.Lookup(re.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, rj)
	if got := rj.Info().Stats; got.Size != res.Info.Stats.Size || got.Round != res.Info.Stats.Round {
		t.Fatalf("restored stats %+v != result stats %+v", got, res.Info.Stats)
	}
}

// TestSessionLimit pins the registry bound.
func TestSessionLimit(t *testing.T) {
	m := NewManager(Config{MaxSessions: 1})
	defer m.Close()
	if _, _, err := m.Submit(context.Background(), quickSpec(20), 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Submit(context.Background(), quickSpec(21), 1); err == nil {
		t.Fatal("second session admitted past MaxSessions=1")
	}
	// A deduped submission is not a new session and must still succeed.
	if _, deduped, err := m.Submit(context.Background(), quickSpec(20), 1); err != nil || !deduped {
		t.Fatalf("dedupe past the limit: deduped=%v err=%v", deduped, err)
	}
}
