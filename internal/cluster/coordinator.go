package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"popstab"
	"popstab/internal/obs"
	"popstab/internal/serve"
)

// Config parameterizes a Coordinator.
type Config struct {
	// WorkerTTL expires a worker whose heartbeat has gone quiet; its
	// sessions fail over to the rest of the fleet (0 = 10s).
	WorkerTTL time.Duration
	// SweepInterval is the expiry/failover loop cadence (0 = 2s;
	// negative = no background loop, tests drive SweepNow).
	SweepInterval time.Duration
	// SubmitRate/SubmitBurst arm the fleet-wide token-bucket admission
	// gate (0 = unlimited). This composes with the per-worker gates: the
	// coordinator gates aggregate intake, each worker still protects
	// itself. Dedupe hits are answered from the index without burning a
	// token — cached results are free.
	SubmitRate  float64
	SubmitBurst int
	// Client performs worker calls (nil = a client with no global timeout;
	// proxied calls carry the caller's context, control calls get bounded
	// ones).
	Client *http.Client
	// Registry receives the coordinator's metrics (nil = a private one).
	Registry *obs.Registry
	// Tracer receives the coordinator's spans (nil = a private one).
	Tracer *obs.Tracer
}

// worker is one registered popserve instance.
type worker struct {
	id       string
	url      string
	lastSeen time.Time
	ready    serve.Readiness
	draining bool
}

// session is the coordinator's record of one routed submission: where it
// lives now, and how to replay it from source if that worker dies.
type session struct {
	id   string
	spec popstab.Spec
	// hash is the canonical Spec.Hash ("" for restores).
	hash string
	// submitRounds is the original target (for restores: rounds beyond the
	// snapshot); extraRounds accumulates later /step additions. Their sum
	// is the replay target after a worker loss.
	submitRounds uint64
	extraRounds  uint64
	// restoreSrc holds the originally submitted snapshot for restore
	// sessions, so failover can replay from the same state.
	restoreSrc []byte
	paused     bool
	// workerID/remoteID locate the live job ("" workerID = orphaned,
	// awaiting failover).
	workerID string
	remoteID string
	lastInfo serve.JobInfo
}

// WorkerInfo is the public view of a registered worker.
type WorkerInfo struct {
	ID       string `json:"id"`
	URL      string `json:"url"`
	Ready    bool   `json:"ready"`
	Draining bool   `json:"draining,omitempty"`
	// Sessions is the coordinator-side count of sessions routed there.
	Sessions int `json:"sessions"`
	// SlotsInUse/Slots mirror the worker's last heartbeat readiness.
	SlotsInUse int `json:"slots_in_use"`
	Slots      int `json:"slots"`
	// LastSeenMS is the heartbeat age in milliseconds.
	LastSeenMS int64 `json:"last_seen_ms"`
}

// RegisterRequest is the POST /v1/workers body — both initial registration
// and every subsequent heartbeat.
type RegisterRequest struct {
	// URL is the worker's advertised base URL (http://host:port).
	URL string `json:"url"`
	// Readiness is the worker's self-reported capacity.
	Readiness serve.Readiness `json:"readiness"`
}

// RegisterResponse acknowledges a heartbeat.
type RegisterResponse struct {
	ID string `json:"id"`
	// TTLMS is how long the registration lasts without another heartbeat.
	TTLMS int64 `json:"ttl_ms"`
}

// DrainResponse reports a worker drain: Migrated sessions moved with their
// live state over the snapshot path; Replayed were resubmitted from source
// (snapshot unavailable); Errors lists sessions that could do neither and
// stayed orphaned for the sweep to retry.
type DrainResponse struct {
	Worker   string   `json:"worker"`
	Migrated int      `json:"migrated"`
	Replayed int      `json:"replayed"`
	Errors   []string `json:"errors,omitempty"`
}

// CoordinatorMetrics are the coordinator's own counters.
type CoordinatorMetrics struct {
	Submissions    uint64 `json:"submissions"`
	DedupeHits     uint64 `json:"dedupe_hits"`
	Throttled      uint64 `json:"throttled,omitempty"`
	Migrations     uint64 `json:"migrations,omitempty"`
	Failovers      uint64 `json:"failovers,omitempty"`
	WorkersExpired uint64 `json:"workers_expired,omitempty"`
	Sessions       int    `json:"sessions"`
	Workers        int    `json:"workers"`
}

// FleetMetrics is the GET /v1/metrics payload of a coordinator: its own
// counters, the field-wise sum over live workers (Fleet.SimRuns is the
// fleet-wide dedupe measure: a deduped sweep of K distinct specs shows
// exactly K), and the per-worker breakdown.
type FleetMetrics struct {
	Coordinator CoordinatorMetrics       `json:"coordinator"`
	Fleet       serve.Metrics            `json:"fleet"`
	Workers     map[string]serve.Metrics `json:"workers"`
}

// FleetReadiness is the GET /v1/readyz payload of a coordinator.
type FleetReadiness struct {
	// Ready: at least one ready worker, not draining, admission open.
	Ready    bool `json:"ready"`
	Draining bool `json:"draining"`
	Workers  int  `json:"workers"`
	// ReadyWorkers counts workers whose last heartbeat reported ready.
	ReadyWorkers  int  `json:"ready_workers"`
	Sessions      int  `json:"sessions"`
	AdmissionOpen bool `json:"admission_open"`
}

// Coordinator routes submissions across registered workers and keeps
// enough state to move or replay every session when the fleet changes.
// Safe for concurrent use.
type Coordinator struct {
	cfg    Config
	gate   *serve.TokenBucket
	client *http.Client

	mu         sync.Mutex
	workers    map[string]*worker  // by id
	byURL      map[string]*worker  // registration identity
	sessions   map[string]*session // by coordinator id
	byKey      map[string]*session // fleet dedupe index: hash/rounds
	byRemote   map[string]*session // workerID+"/"+remoteID → session
	nextWorker uint64
	nextID     uint64
	closed     bool

	// coordObs carries the registry-backed counters under their historic
	// names (c.submissions.Add(1) etc.) plus the tracer and gauge plumbing.
	coordObs

	sweepMu   sync.Mutex // serializes sweep passes
	sweepStop chan struct{}
	sweepDone chan struct{}
}

// NewCoordinator starts a coordinator (and its sweep loop unless
// SweepInterval < 0).
func NewCoordinator(cfg Config) *Coordinator {
	if cfg.WorkerTTL <= 0 {
		cfg.WorkerTTL = 10 * time.Second
	}
	if cfg.SweepInterval == 0 {
		cfg.SweepInterval = 2 * time.Second
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.Tracer == nil {
		cfg.Tracer = obs.NewTracer("popcoord", 0, 0)
	}
	c := &Coordinator{
		cfg:      cfg,
		client:   cfg.Client,
		workers:  make(map[string]*worker),
		byURL:    make(map[string]*worker),
		sessions: make(map[string]*session),
		byKey:    make(map[string]*session),
		byRemote: make(map[string]*session),
		coordObs: newCoordObs(cfg.Registry, cfg.Tracer),
	}
	c.registerObs()
	if cfg.SubmitRate > 0 {
		c.gate = serve.NewTokenBucket(cfg.SubmitRate, cfg.SubmitBurst)
	}
	if cfg.SweepInterval > 0 {
		c.sweepStop = make(chan struct{})
		c.sweepDone = make(chan struct{})
		go c.sweepLoop()
	}
	return c
}

// Close stops the sweep loop and refuses further submissions. Workers keep
// running their sessions; a coordinator restart re-learns the fleet from
// heartbeats (sessions routed by a previous incarnation are not re-owned).
func (c *Coordinator) Close() {
	c.mu.Lock()
	closed := c.closed
	c.closed = true
	c.mu.Unlock()
	if closed {
		return
	}
	if c.sweepStop != nil {
		close(c.sweepStop)
		<-c.sweepDone
	}
}

// Register records a heartbeat, assigning an ID on first contact. The URL
// is the registration identity: re-registering an existing URL refreshes
// its TTL and readiness.
func (c *Coordinator) Register(req RegisterRequest) (RegisterResponse, error) {
	if req.URL == "" {
		return RegisterResponse{}, serve.BadRequest(errors.New("register: missing url"))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return RegisterResponse{}, serve.ErrClosed
	}
	w, ok := c.byURL[req.URL]
	if !ok {
		c.nextWorker++
		w = &worker{id: fmt.Sprintf("w-%03d", c.nextWorker), url: req.URL}
		c.workers[w.id] = w
		c.byURL[req.URL] = w
	}
	w.lastSeen = time.Now()
	w.ready = req.Readiness
	return RegisterResponse{ID: w.id, TTLMS: c.cfg.WorkerTTL.Milliseconds()}, nil
}

// Workers lists the registry, ordered by ID.
func (c *Coordinator) Workers() []WorkerInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	out := make([]WorkerInfo, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, WorkerInfo{
			ID:         w.id,
			URL:        w.url,
			Ready:      w.ready.Ready,
			Draining:   w.draining,
			Sessions:   c.ownedLocked(w.id),
			SlotsInUse: w.ready.SlotsInUse,
			Slots:      w.ready.Slots,
			LastSeenMS: now.Sub(w.lastSeen).Milliseconds(),
		})
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// ownedLocked counts sessions routed to a worker (caller holds c.mu).
func (c *Coordinator) ownedLocked(workerID string) int {
	n := 0
	for _, s := range c.sessions {
		if s.workerID == workerID {
			n++
		}
	}
	return n
}

// candidatesLocked builds the routing view of the routable fleet (caller
// holds c.mu). Draining workers take no new sessions.
func (c *Coordinator) candidatesLocked() []Candidate {
	cands := make([]Candidate, 0, len(c.workers))
	for _, w := range c.workers {
		if w.draining {
			continue
		}
		cands = append(cands, Candidate{
			ID:         w.id,
			SlotsInUse: w.ready.SlotsInUse,
			Slots:      w.ready.Slots,
			Sessions:   c.ownedLocked(w.id),
			Ready:      w.ready.Ready,
		})
	}
	// Deterministic base order.
	sort.Slice(cands, func(i, k int) bool { return cands[i].ID < cands[k].ID })
	return cands
}

// errNoWorkers is the routable-fleet-is-empty rejection.
func errNoWorkers() error {
	return &serve.APIError{
		Status: http.StatusServiceUnavailable,
		Code:   serve.CodeNoWorkers,
		Err:    errors.New("cluster: no routable worker"),
	}
}

// Submit routes a submission. Fleet-level dedupe is answered from the
// coordinator's index without a worker round-trip or an admission token;
// misses pass the fleet gate, are routed (affinity sends identical specs to
// the same worker, making concurrent-duplicate dedupe exact), and recorded
// for migration/failover. Restores (snapshot != nil) bypass the dedupe
// index like they do on a single worker.
func (c *Coordinator) Submit(ctx context.Context, req serve.SubmitRequest) (serve.SubmitResponse, error) {
	restore := len(req.Snapshot) > 0
	hash := ""
	if !restore {
		h, err := req.Spec.Hash()
		if err != nil {
			return serve.SubmitResponse{}, fmt.Errorf("%w: %v", serve.ErrInvalidSpec, err)
		}
		hash = h
	}
	key := fmt.Sprintf("%s/%d", hash, req.Rounds)

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return serve.SubmitResponse{}, serve.ErrClosed
	}
	c.submissions.Add(1)
	if !restore {
		if s, ok := c.byKey[key]; ok {
			c.dedupeHits.Add(1)
			id := s.id
			c.mu.Unlock()
			info, _ := c.Info(ctx, id)
			return serve.SubmitResponse{ID: id, Deduped: true, Info: info}, nil
		}
	}
	if c.gate != nil {
		if retry, ok := c.gate.Admit(time.Now()); !ok {
			c.throttled.Add(1)
			c.mu.Unlock()
			return serve.SubmitResponse{}, &serve.ThrottledError{RetryAfter: retry}
		}
	}
	cands := c.candidatesLocked()
	c.mu.Unlock()

	// Route and forward, stepping to the next candidate when one is
	// unreachable (its expiry is left to the heartbeat sweep). The whole
	// decision — including forwards to workers that turned out dead — is one
	// "route" span under the submission's trace.
	endRoute := c.tracer.Start(obs.TraceID(ctx), "route")
	var (
		resp serve.SubmitResponse
		wID  string
		err  error
	)
	for len(cands) > 0 {
		i := affinity(cands, hash)
		if i < 0 {
			break
		}
		wID = cands[i].ID
		url, ok := c.workerURL(wID)
		if !ok {
			cands = append(cands[:i], cands[i+1:]...)
			continue
		}
		err = c.timedJSON(ctx, wID, http.MethodPost, url+"/v1/sessions", req, &resp)
		if isUnreachable(err) {
			c.markUnreachable(wID)
			cands = append(cands[:i], cands[i+1:]...)
			continue
		}
		break
	}
	endRoute("worker", wID, "hash", hash)
	if wID == "" {
		return serve.SubmitResponse{}, errNoWorkers()
	}
	if err != nil {
		return serve.SubmitResponse{}, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	// The worker may have collapsed this onto a job another coordinator
	// session already owns (a racing duplicate that was admitted before
	// the first response landed, or a failover replay): reuse that record
	// instead of double-booking the remote job.
	rkey := wID + "/" + resp.ID
	if s, ok := c.byRemote[rkey]; ok && !restore {
		c.dedupeHits.Add(1)
		s.lastInfo = resp.Info
		resp.ID = s.id
		resp.Deduped = true
		resp.Info.ID = s.id
		return resp, nil
	}
	c.nextID++
	s := &session{
		id:           fmt.Sprintf("c-%06d", c.nextID),
		spec:         req.Spec,
		hash:         hash,
		submitRounds: req.Rounds,
		restoreSrc:   req.Snapshot,
		paused:       restore && req.Paused,
		workerID:     wID,
		remoteID:     resp.ID,
		lastInfo:     resp.Info,
	}
	c.sessions[s.id] = s
	c.byRemote[rkey] = s
	if !restore {
		c.byKey[key] = s
	}
	resp.ID = s.id
	resp.Info.ID = s.id
	resp.Info.Hash = hash
	return resp, nil
}

// lookup resolves a coordinator session ID to its current placement.
func (c *Coordinator) lookup(id string) (*session, string, string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.sessions[id]
	if !ok {
		return nil, "", "", fmt.Errorf("%w: %s", serve.ErrUnknownSession, id)
	}
	if s.workerID == "" {
		return nil, "", "", &serve.APIError{
			Status: http.StatusServiceUnavailable,
			Code:   serve.CodeNoWorkers,
			Err:    fmt.Errorf("cluster: session %s awaiting failover", id),
		}
	}
	w, ok := c.workers[s.workerID]
	if !ok {
		return nil, "", "", &serve.APIError{
			Status: http.StatusServiceUnavailable,
			Code:   serve.CodeNoWorkers,
			Err:    fmt.Errorf("cluster: session %s awaiting failover", id),
		}
	}
	return s, w.url, s.remoteID, nil
}

// proxyInfo is a session op that returns the remote job's info with the ID
// rewritten to the coordinator's.
func (c *Coordinator) proxyInfo(ctx context.Context, id, method, path string, body any) (serve.JobInfo, error) {
	s, url, rid, err := c.lookup(id)
	if err != nil {
		return serve.JobInfo{}, err
	}
	var info serve.JobInfo
	if err := c.timedJSON(ctx, s.workerID, method, url+"/v1/sessions/"+rid+path, body, &info); err != nil {
		c.noteProxyError(s, err)
		return serve.JobInfo{}, err
	}
	c.mu.Lock()
	s.lastInfo = info
	c.mu.Unlock()
	info.ID = id
	// A migrated session lives on its new worker as a restore, which is not
	// content-addressed there — but the coordinator's identity is: keep
	// reporting the original hash across moves.
	if s.hash != "" {
		info.Hash = s.hash
	}
	return info, nil
}

// Info proxies GET /v1/sessions/{id}.
func (c *Coordinator) Info(ctx context.Context, id string) (serve.JobInfo, error) {
	return c.proxyInfo(ctx, id, http.MethodGet, "", nil)
}

// Step proxies POST step, recording the added rounds for failover replay.
func (c *Coordinator) Step(ctx context.Context, id string, rounds uint64) (serve.JobInfo, error) {
	info, err := c.proxyInfo(ctx, id, http.MethodPost, "/step", serve.StepRequest{Rounds: rounds})
	if err == nil {
		c.mu.Lock()
		if s, ok := c.sessions[id]; ok {
			s.extraRounds += rounds
		}
		c.mu.Unlock()
	}
	return info, err
}

// Pause proxies POST pause.
func (c *Coordinator) Pause(ctx context.Context, id string) (serve.JobInfo, error) {
	info, err := c.proxyInfo(ctx, id, http.MethodPost, "/pause", nil)
	if err == nil {
		c.setPaused(id, true)
	}
	return info, err
}

// Resume proxies POST resume.
func (c *Coordinator) Resume(ctx context.Context, id string) (serve.JobInfo, error) {
	info, err := c.proxyInfo(ctx, id, http.MethodPost, "/resume", nil)
	if err == nil {
		c.setPaused(id, false)
	}
	return info, err
}

// setPaused records the intended pause state (replayed on failover).
func (c *Coordinator) setPaused(id string, paused bool) {
	c.mu.Lock()
	if s, ok := c.sessions[id]; ok {
		s.paused = paused
	}
	c.mu.Unlock()
}

// Snapshot proxies GET snapshot, rewriting the ID.
func (c *Coordinator) Snapshot(ctx context.Context, id string) (serve.SnapshotResponse, error) {
	s, url, rid, err := c.lookup(id)
	if err != nil {
		return serve.SnapshotResponse{}, err
	}
	var resp serve.SnapshotResponse
	if err := c.timedJSON(ctx, s.workerID, http.MethodGet, url+"/v1/sessions/"+rid+"/snapshot", nil, &resp); err != nil {
		c.noteProxyError(s, err)
		return serve.SnapshotResponse{}, err
	}
	resp.ID = id
	return resp, nil
}

// Wait proxies the long-poll, passing the raw query through.
func (c *Coordinator) Wait(ctx context.Context, id, rawQuery string) (serve.WaitResponse, error) {
	s, url, rid, err := c.lookup(id)
	if err != nil {
		return serve.WaitResponse{}, err
	}
	target := url + "/v1/sessions/" + rid + "/wait"
	if rawQuery != "" {
		target += "?" + rawQuery
	}
	var resp serve.WaitResponse
	if err := c.timedJSON(ctx, s.workerID, http.MethodGet, target, nil, &resp); err != nil {
		c.noteProxyError(s, err)
		return serve.WaitResponse{}, err
	}
	c.mu.Lock()
	s.lastInfo = resp.Info
	c.mu.Unlock()
	resp.Info.ID = id
	if s.hash != "" {
		resp.Info.Hash = s.hash
	}
	return resp, nil
}

// List reports every coordinator session from its last observed info
// (refreshed by any proxied call; a quiet session's stats may lag the
// worker by design — List is an index, not a poll of the fleet).
func (c *Coordinator) List() []serve.JobInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]serve.JobInfo, 0, len(c.sessions))
	for _, s := range c.sessions {
		info := s.lastInfo
		info.ID = s.id
		if s.hash != "" {
			info.Hash = s.hash
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// Result resolves the content-addressed store: the completed session for a
// spec hash, wherever it lives now (migration moves the bytes with the
// session, so this follows the mapping instead of re-asking the original
// worker). Known-but-running hashes answer result_pending.
func (c *Coordinator) Result(ctx context.Context, hash string) (serve.ResultResponse, error) {
	c.mu.Lock()
	var cands []*session
	for _, s := range c.sessions {
		if s.hash == hash {
			cands = append(cands, s)
		}
	}
	c.mu.Unlock()
	if len(cands) == 0 {
		return serve.ResultResponse{}, fmt.Errorf("%w: %s", serve.ErrNoResult, hash)
	}
	// Prefer the longest-target run among completed candidates.
	sort.Slice(cands, func(i, k int) bool {
		return cands[i].submitRounds+cands[i].extraRounds > cands[k].submitRounds+cands[k].extraRounds
	})
	for _, s := range cands {
		info, err := c.Info(ctx, s.id)
		if err != nil || info.Status != serve.StatusDone {
			continue
		}
		snap, err := c.Snapshot(ctx, s.id)
		if err != nil {
			continue
		}
		return serve.ResultResponse{
			Hash: hash, ID: s.id, Spec: snap.Spec, Info: info, Snapshot: snap.Snapshot,
		}, nil
	}
	return serve.ResultResponse{}, fmt.Errorf("%w: %s", serve.ErrResultPending, hash)
}

// Readiness aggregates worker health: the fleet is ready while at least one
// worker reports ready and the fleet admission gate has a token.
func (c *Coordinator) Readiness() FleetReadiness {
	c.mu.Lock()
	defer c.mu.Unlock()
	ready := 0
	for _, w := range c.workers {
		if w.ready.Ready && !w.draining {
			ready++
		}
	}
	open := c.gate == nil || c.gate.Open(time.Now())
	return FleetReadiness{
		Ready:         !c.closed && ready > 0 && open,
		Draining:      c.closed,
		Workers:       len(c.workers),
		ReadyWorkers:  ready,
		Sessions:      len(c.sessions),
		AdmissionOpen: open,
	}
}

// Metrics aggregates the live fleet: each worker's /v1/metrics is fetched
// concurrently (bounded per-call) and summed field-wise.
func (c *Coordinator) Metrics(ctx context.Context) FleetMetrics {
	c.mu.Lock()
	type target struct{ id, url string }
	targets := make([]target, 0, len(c.workers))
	for _, w := range c.workers {
		targets = append(targets, target{w.id, w.url})
	}
	coord := CoordinatorMetrics{
		Submissions:    c.submissions.Value(),
		DedupeHits:     c.dedupeHits.Value(),
		Throttled:      c.throttled.Value(),
		Migrations:     c.migrations.Value(),
		Failovers:      c.failovers.Value(),
		WorkersExpired: c.workerExpired.Value(),
		Sessions:       len(c.sessions),
		Workers:        len(c.workers),
	}
	c.mu.Unlock()

	per := make(map[string]serve.Metrics, len(targets))
	var permu sync.Mutex
	var wg sync.WaitGroup
	for _, t := range targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cctx, cancel := context.WithTimeout(ctx, 3*time.Second)
			defer cancel()
			var m serve.Metrics
			if err := c.timedJSON(cctx, t.id, http.MethodGet, t.url+"/v1/metrics", nil, &m); err != nil {
				return
			}
			permu.Lock()
			per[t.id] = m
			permu.Unlock()
		}()
	}
	wg.Wait()

	var fleet serve.Metrics
	for _, m := range per {
		fleet.Submissions += m.Submissions
		fleet.SimRuns += m.SimRuns
		fleet.DedupeHits += m.DedupeHits
		fleet.Completed += m.Completed
		fleet.Failed += m.Failed
		fleet.Panics += m.Panics
		fleet.Throttled += m.Throttled
		fleet.Checkpoints += m.Checkpoints
		fleet.CheckpointErrors += m.CheckpointErrors
		fleet.Recovered += m.Recovered
		fleet.Hibernated += m.Hibernated
		fleet.Revived += m.Revived
		fleet.Reaped += m.Reaped
		fleet.Sessions += m.Sessions
		fleet.ActiveRunners += m.ActiveRunners
	}
	return FleetMetrics{Coordinator: coord, Fleet: fleet, Workers: per}
}

// workerURL resolves a worker ID to its base URL.
func (c *Coordinator) workerURL(id string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[id]
	if !ok {
		return "", false
	}
	return w.url, true
}

// noteProxyError zeroes an unreachable worker's heartbeat so the next sweep
// expires it and fails its sessions over, then kicks a sweep.
func (c *Coordinator) noteProxyError(s *session, err error) {
	if !isUnreachable(err) {
		return
	}
	c.mu.Lock()
	w, ok := c.workers[s.workerID]
	if ok {
		w.lastSeen = time.Time{}
	}
	c.mu.Unlock()
	if ok {
		go c.SweepNow()
	}
}

// markUnreachable zeroes a worker's heartbeat (sweep will expire it).
func (c *Coordinator) markUnreachable(id string) {
	c.mu.Lock()
	if w, ok := c.workers[id]; ok {
		w.lastSeen = time.Time{}
	}
	c.mu.Unlock()
}

// isUnreachable classifies transport-level proxy failures (as opposed to a
// worker's own error envelope, which passes through verbatim).
func isUnreachable(err error) bool {
	var apiErr *serve.APIError
	return errors.As(err, &apiErr) && apiErr.Code == serve.CodeWorkerUnreachable
}

// doJSON performs one worker call: JSON request body (nil = none), JSON
// response decode, and error-envelope passthrough — a worker's non-2xx
// envelope is re-raised as an APIError with the same status and code, so
// the coordinator's client sees exactly what the worker said. Transport
// failures become 502 worker_unreachable.
func (c *Coordinator) doJSON(ctx context.Context, method, url string, body, out any) error {
	var rd io.Reader
	if body != nil {
		blob, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(blob)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Propagate the caller's trace so the worker's spans and log lines land
	// under the same ID the coordinator's edge minted (or adopted).
	if id := obs.TraceID(ctx); id != "" {
		req.Header.Set(obs.TraceHeader, id)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return &serve.APIError{
			Status: http.StatusBadGateway,
			Code:   serve.CodeWorkerUnreachable,
			Err:    fmt.Errorf("cluster: worker call %s %s: %w", method, url, err),
		}
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var envelope serve.ErrorBody
		if derr := json.NewDecoder(resp.Body).Decode(&envelope); derr != nil || envelope.Error.Code == "" {
			return &serve.APIError{
				Status: http.StatusBadGateway,
				Code:   serve.CodeWorkerUnreachable,
				Err:    fmt.Errorf("cluster: worker %s %s: status %d with undecodable error", method, url, resp.StatusCode),
			}
		}
		return &serve.APIError{
			Status:     resp.StatusCode,
			Code:       envelope.Error.Code,
			Err:        errors.New(envelope.Error.Message),
			RetryAfter: time.Duration(envelope.Error.RetryAfterMS) * time.Millisecond,
		}
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
