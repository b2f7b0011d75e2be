package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"popstab"
	"popstab/internal/obs"
)

// HTTP surface of the manager — the worker half of the v1 contract (the
// coordinator in internal/cluster re-exposes the same routes). Snapshot
// bytes travel base64-encoded inside JSON (encoding/json's []byte
// convention), so the whole API is curl-friendly:
//
//	POST /v1/sessions                   {"spec": {...}, "rounds": N}       submit (deduped; 429 + Retry-After when throttled)
//	POST /v1/sessions                   {"spec", "snapshot", "rounds"}     restore + continue
//	GET  /v1/sessions                                                      list
//	GET  /v1/sessions/{id}                                                 status + stats
//	POST /v1/sessions/{id}/step         {"rounds": N}                      advance
//	POST /v1/sessions/{id}/pause                                           park
//	POST /v1/sessions/{id}/resume                                          unpark
//	GET  /v1/sessions/{id}/snapshot                                        spec + snapshot bytes
//	GET  /v1/sessions/{id}/stream                                          SSE stats feed (heartbeat comments while idle)
//	GET  /v1/sessions/{id}/wait?status=done&timeout=30s                    long-poll until the session reaches a status
//	GET  /v1/results/{hash}                                                content-addressed result: completed run for a Spec.Hash
//	GET  /v1/healthz                                                       liveness
//	GET  /v1/readyz                                                        readiness: slot-pool saturation + admission-gate state; 503 while draining/saturated
//	GET  /v1/metrics                                                       run/dedupe/failure/checkpoint counters (JSON; ?format=prometheus for text exposition)
//	GET  /v1/trace/{id}                                                    recorded spans for one trace ID
//
// Every non-2xx response carries the unified error envelope (see api.go);
// unknown IDs are 404 unknown_session while IDs reaped after their TTL are
// 410 session_expired. Hibernated sessions are revived transparently by the
// {id} lookup; a draining server answers control calls with 503.

// SubmitRequest is the POST /v1/sessions body.
type SubmitRequest struct {
	// Spec describes the simulation (see popstab.Spec).
	Spec popstab.Spec `json:"spec"`
	// Rounds is the run target; 0 opens an idle session for manual
	// stepping.
	Rounds uint64 `json:"rounds"`
	// Snapshot, when present, restores a previously fetched snapshot
	// under Spec instead of starting fresh (base64 in JSON).
	Snapshot []byte `json:"snapshot,omitempty"`
	// Paused parks the session on arrival (restore only): migration of a
	// paused session must not run rounds on the new host before the park
	// lands.
	Paused bool `json:"paused,omitempty"`
}

// SubmitResponse answers a submission.
type SubmitResponse struct {
	ID string `json:"id"`
	// Deduped reports that an identical submission was already known and
	// the caller attached to its job.
	Deduped bool    `json:"deduped"`
	Info    JobInfo `json:"info"`
}

// StepRequest is the POST step body.
type StepRequest struct {
	Rounds uint64 `json:"rounds"`
}

// SnapshotResponse carries a restorable checkpoint.
type SnapshotResponse struct {
	ID   string       `json:"id"`
	Spec popstab.Spec `json:"spec"`
	// Snapshot is the opaque session state (base64 in JSON); POST it back
	// with the same spec to resume, here or on another popserve.
	Snapshot []byte `json:"snapshot"`
}

// WaitResponse answers a long-poll. Reached reports whether the requested
// status was observed; false means the wait timed out (or the session hit a
// terminal state first) and Info carries whatever state it was in.
type WaitResponse struct {
	Reached bool    `json:"reached"`
	Info    JobInfo `json:"info"`
}

// ResultResponse is the content-addressed result payload: the completed
// session answering for a spec hash, with its restorable snapshot.
type ResultResponse struct {
	Hash     string       `json:"hash"`
	ID       string       `json:"id"`
	Spec     popstab.Spec `json:"spec"`
	Info     JobInfo      `json:"info"`
	Snapshot []byte       `json:"snapshot"`
}

// Long-poll bounds: the default when ?timeout is absent and the cap a
// client cannot exceed (so a stuck client cannot pin a handler forever).
const (
	defaultWaitTimeout = 30 * time.Second
	maxWaitTimeout     = 5 * time.Minute
)

// streamHeartbeat is the idle-stream keepalive cadence: SSE comment lines
// emitted so proxies and LBs do not reap quiet connections. A variable so
// tests can shorten it.
var streamHeartbeat = 15 * time.Second

// TraceResponse is the GET /v1/trace/{id} payload. The coordinator reuses it
// when merging its own spans with the owning worker's.
type TraceResponse struct {
	Trace string     `json:"trace"`
	Spans []obs.Span `json:"spans"`
}

// WantsPrometheus reports whether a metrics request asks for the text
// exposition (?format=prometheus) instead of the legacy JSON counters. An
// explicit format always wins; otherwise an Accept header naming text/plain
// (what Prometheus scrapers send) selects the exposition.
func WantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus", "text":
		return true
	case "json":
		return false
	}
	return strings.Contains(r.Header.Get("Accept"), "text/plain")
}

// WritePrometheus serves reg in Prometheus text exposition format 0.0.4.
func WritePrometheus(w http.ResponseWriter, reg *obs.Registry) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = reg.WritePrometheus(w)
}

// NewHandler exposes m over HTTP.
func NewHandler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /v1/readyz", func(w http.ResponseWriter, r *http.Request) {
		rd := m.Readiness()
		code := http.StatusOK
		if !rd.Ready {
			code = http.StatusServiceUnavailable
		}
		WriteJSON(w, code, rd)
	})
	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		if WantsPrometheus(r) {
			WritePrometheus(w, m.Registry())
			return
		}
		WriteJSON(w, http.StatusOK, m.Metrics())
	})
	mux.HandleFunc("GET /v1/trace/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		spans := m.Tracer().Spans(id)
		if len(spans) == 0 {
			WriteError(w, &APIError{
				Status: http.StatusNotFound,
				Code:   CodeUnknownTrace,
				Err:    fmt.Errorf("no spans recorded for trace %q", id),
			})
			return
		}
		WriteJSON(w, http.StatusOK, TraceResponse{Trace: id, Spans: spans})
	})
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		var req SubmitRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			WriteError(w, BadRequest(fmt.Errorf("bad request body: %w", err)))
			return
		}
		var (
			j       *Job
			deduped bool
			err     error
		)
		if len(req.Snapshot) > 0 {
			j, err = m.Restore(r.Context(), req.Spec, req.Snapshot, req.Rounds, req.Paused)
		} else {
			j, deduped, err = m.Submit(r.Context(), req.Spec, req.Rounds)
		}
		if err != nil {
			WriteError(w, err)
			return
		}
		WriteJSON(w, http.StatusOK, SubmitResponse{ID: j.ID(), Deduped: deduped, Info: j.Info()})
	})
	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, m.List())
	})
	mux.HandleFunc("GET /v1/sessions/{id}", withJob(m, func(j *Job, w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, j.Info())
	}))
	mux.HandleFunc("POST /v1/sessions/{id}/step", withJob(m, func(j *Job, w http.ResponseWriter, r *http.Request) {
		var req StepRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			WriteError(w, BadRequest(fmt.Errorf("bad request body: %w", err)))
			return
		}
		if req.Rounds == 0 {
			WriteError(w, BadRequest(fmt.Errorf("step of 0 rounds")))
			return
		}
		if err := j.Step(req.Rounds); err != nil {
			WriteError(w, err)
			return
		}
		WriteJSON(w, http.StatusOK, j.Info())
	}))
	mux.HandleFunc("POST /v1/sessions/{id}/pause", withJob(m, func(j *Job, w http.ResponseWriter, r *http.Request) {
		if err := j.Pause(r.Context()); err != nil {
			WriteError(w, err)
			return
		}
		WriteJSON(w, http.StatusOK, j.Info())
	}))
	mux.HandleFunc("POST /v1/sessions/{id}/resume", withJob(m, func(j *Job, w http.ResponseWriter, r *http.Request) {
		if err := j.Resume(); err != nil {
			WriteError(w, err)
			return
		}
		WriteJSON(w, http.StatusOK, j.Info())
	}))
	mux.HandleFunc("GET /v1/sessions/{id}/snapshot", withJob(m, func(j *Job, w http.ResponseWriter, r *http.Request) {
		spec, blob, err := j.Snapshot(r.Context())
		if err != nil {
			WriteError(w, err)
			return
		}
		WriteJSON(w, http.StatusOK, SnapshotResponse{ID: j.ID(), Spec: spec, Snapshot: blob})
	}))
	mux.HandleFunc("GET /v1/sessions/{id}/wait", withJob(m, waitHandler))
	mux.HandleFunc("GET /v1/sessions/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		j, err := m.Lookup(r.PathValue("id"))
		if err != nil {
			WriteError(w, err)
			return
		}
		streamHandler(m, j, w, r)
	})
	mux.HandleFunc("GET /v1/results/{hash}", func(w http.ResponseWriter, r *http.Request) {
		hash := r.PathValue("hash")
		j, err := m.ResultByHash(hash)
		if err != nil {
			WriteError(w, err)
			return
		}
		spec, blob, err := j.Snapshot(r.Context())
		if err != nil {
			WriteError(w, err)
			return
		}
		WriteJSON(w, http.StatusOK, ResultResponse{
			Hash: hash, ID: j.ID(), Spec: spec, Info: j.Info(), Snapshot: blob,
		})
	})
	// Every request flows through the trace middleware: an incoming
	// X-Popstab-Trace is adopted (the coordinator sets it when proxying),
	// otherwise a fresh ID is minted; either way the header is echoed, an
	// "http" span is recorded, and the access log line carries trace=<id>.
	return obs.Middleware(m.Tracer(), nil, mux)
}

// waitHandler is the long-poll: park the request on the job's condition
// variable — the same quantum-wait machinery Snapshot uses — until the
// session reaches ?status (default done), hits a terminal state, or
// ?timeout (default 30s, capped at 5m) expires. Timeout is a 200 with
// reached=false, not an error: the client inspects Info and re-polls.
func waitHandler(j *Job, w http.ResponseWriter, r *http.Request) {
	want := Status(r.URL.Query().Get("status"))
	if want == "" {
		want = StatusDone
	}
	switch want {
	case StatusQueued, StatusRunning, StatusPaused, StatusDone, StatusFailed:
	default:
		WriteError(w, BadRequest(fmt.Errorf("unknown status %q", want)))
		return
	}
	timeout := defaultWaitTimeout
	if raw := r.URL.Query().Get("timeout"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil || d <= 0 {
			WriteError(w, BadRequest(fmt.Errorf("bad timeout %q", raw)))
			return
		}
		timeout = min(d, maxWaitTimeout)
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	info, reached, err := j.Wait(ctx, want)
	if err != nil {
		WriteError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, WaitResponse{Reached: reached, Info: info})
}

// withJob resolves the {id} path value (reviving hibernated sessions),
// mapping unknown IDs to 404 and TTL-reaped IDs to 410 through Lookup.
func withJob(m *Manager, fn func(*Job, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, err := m.Lookup(r.PathValue("id"))
		if err != nil {
			WriteError(w, err)
			return
		}
		fn(j, w, r)
	}
}

// StreamEvent is the SSE "stats" event payload: the session's cumulative
// stats (flattened — field names are unchanged from when the event WAS a
// bare SessionStats) plus the engine's cumulative round-phase cost counters
// at the moment the event was written.
type StreamEvent struct {
	popstab.SessionStats
	Phases popstab.RoundStats `json:"phases"`
}

// streamHandler serves the SSE stats feed: one "stats" event per completed
// step quantum (lossy under backpressure), a "done" event at completion,
// then the stream ends. While the feed is idle it emits heartbeat comment
// lines every streamHeartbeat so intermediaries keep the connection open.
// The subscription ends — freeing the fan-out slot — when the client
// disconnects (r.Context) or the server drains (m.ShuttingDown).
// Reconnecting clients just resubscribe; the feed is progress, not
// history.
func streamHandler(m *Manager, j *Job, w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, &APIError{
			Status: http.StatusNotImplemented,
			Code:   CodeUnsupported,
			Err:    fmt.Errorf("streaming unsupported by this connection"),
		})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	ch, cancel := j.Subscribe(16)
	defer cancel()

	// Initial event so the client has the current state immediately.
	info := j.Info()
	writeEvent(w, "stats", StreamEvent{SessionStats: info.Stats, Phases: j.RoundStats()})
	fl.Flush()
	if info.Status == StatusDone || info.Status == StatusFailed {
		writeEvent(w, "done", info)
		fl.Flush()
		return
	}

	// Job.Done() fires only on the FIRST completion; a job revived by a
	// manual step has it permanently closed while actively running, so in
	// that case completion is detected from the status after each event
	// instead (the final stats publish and the done transition happen in
	// one critical section, so the last event always arrives).
	done := j.Done()
	select {
	case <-done:
		done = nil // revived: the channel would fire instantly forever
	default:
	}

	hb := time.NewTicker(streamHeartbeat)
	defer hb.Stop()

	for {
		select {
		case <-r.Context().Done():
			return
		case <-m.ShuttingDown():
			// Draining: end the stream so http.Server.Shutdown can finish
			// instead of waiting out an idle subscriber.
			return
		case <-hb.C:
			// SSE comment line: ignored by clients, keeps proxies from
			// reaping an idle connection.
			fmt.Fprint(w, ": heartbeat\n\n")
			fl.Flush()
		case <-done:
			writeEvent(w, "done", j.Info())
			fl.Flush()
			return
		case stats, ok := <-ch:
			if !ok {
				return
			}
			writeEvent(w, "stats", StreamEvent{SessionStats: stats, Phases: j.RoundStats()})
			fl.Flush()
			if info := j.Info(); info.Status == StatusDone || info.Status == StatusFailed {
				writeEvent(w, "done", info)
				fl.Flush()
				return
			}
		}
	}
}

// writeEvent emits one SSE event.
func writeEvent(w http.ResponseWriter, event string, v any) {
	blob, err := json.Marshal(v)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, blob)
}
