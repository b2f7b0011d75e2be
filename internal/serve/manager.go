// Package serve is the simulation-as-a-service layer: a job manager that
// multiplexes many steppable popstab.Sessions over a bounded worker pool,
// dedupes identical submissions through a canonical-config-hash cache, and
// streams per-step stats to subscribers. cmd/popserve exposes it over HTTP
// (submit / step / pause / resume / snapshot / SSE stream); the package
// itself is transport-agnostic so tests and examples drive it in-process.
//
// # Execution model
//
// Every job owns one goroutine (its runner) and one popstab.Session. The
// runner advances the session in quanta of Config.StepQuantum rounds; to
// run a quantum it first acquires a slot from the manager's bounded pool,
// so at most Config.MaxConcurrent sessions consume CPU at once while any
// number are open, paused, or parked between quanta — the inversion that
// turns the fire-and-forget round loop into a service. Between quanta the
// runner re-reads its control state, so added step budget and shutdown take
// effect with at most one quantum of latency; Pause and Snapshot wait out
// the in-flight quantum, so callers only ever see a between-rounds state
// the session was really in.
//
// Lock order: a job's mu may be held while taking the manager's mu (the
// dedupe-cache checks), never the reverse. The shutdown flag is atomic so
// runners and waiters read it without any lock.
//
// # Failure model
//
// The serving layer assumes sessions can fail and the process can die at
// any instant, and bounds the damage (DESIGN.md §9):
//
//   - Panic isolation: a panic anywhere in a runner — session build or a
//     step quantum — is recovered into a StatusFailed transition carrying
//     the stack, the dedupe entry is evicted, and the pool slot is returned
//     by defer, so one poisoned spec cannot leak capacity.
//   - Durable checkpoints: with a CheckpointStore configured, the runner
//     persists a checkpoint every CheckpointEvery rounds and at completion,
//     and Shutdown checkpoints every live session; Recover re-registers
//     checkpointed jobs on startup and resumes their outstanding rounds,
//     bit-identically to a run that was never interrupted.
//   - GC and eviction: terminal sessions idle past SessionTTL are reaped;
//     under registry pressure the least-recently-touched idle sessions are
//     hibernated — spilled to the store and transparently revived by the
//     next Get.
//   - Admission control: an optional token-bucket gate rejects submission
//     bursts with a Retry-After hint instead of letting the registry fill.
//   - Fault injection: production code consults Config.Faults at the named
//     points in internal/fault; chaos tests arm them to prove the above.
//
// # Dedupe
//
// Submissions are identified by (popstab.Spec.Hash, target rounds). The
// hash canonicalizes defaults and EXCLUDES Workers — simulation output is
// bit-identical across worker counts — so two users submitting the same
// experiment share one run and one result: the second submission attaches
// to the first job whatever state it is in. Metrics.SimRuns counts actual
// engine runs and Metrics.DedupeHits the submissions served without one;
// the load smoke (examples/serve) asserts on exactly these. Restored
// sessions (snapshot resumes) never join the cache: their state is not a
// pure function of the spec. Recovered and revived jobs rejoin it when
// they held their identity at checkpoint time.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"popstab"
	"popstab/internal/fault"
	"popstab/internal/obs"
)

// Config parameterizes a Manager.
type Config struct {
	// MaxConcurrent bounds how many sessions step simultaneously
	// (0 = runtime.NumCPU()).
	MaxConcurrent int
	// MaxSessions bounds the registry; submissions beyond it fail — or,
	// with a Store, hibernate an idle session to make room (0 = 4096).
	// Completed jobs count — they are the result cache.
	MaxSessions int
	// StepQuantum is the number of rounds a runner advances per pool slot
	// (0 = 64): the latency bound on pause/snapshot/shutdown.
	StepQuantum int
	// SessionWorkers is the engine worker count per session (0 = 1; the
	// pool provides cross-session parallelism, so intra-session sharding
	// is usually left off).
	SessionWorkers int

	// Store persists checkpoints for crash recovery and hibernation
	// (nil = neither).
	Store CheckpointStore
	// CheckpointEvery is the round cadence of durable checkpoints
	// (0 = 256; only meaningful with a Store).
	CheckpointEvery int
	// SessionTTL reaps terminal (done/failed) sessions idle this long
	// (0 = never). Reaped done jobs lose their checkpoint too: reaped
	// means gone.
	SessionTTL time.Duration
	// MaxResident is the janitor's residency watermark: GC hibernates
	// least-recently-touched idle sessions while more than this many are
	// resident (0 = MaxSessions, i.e. hibernation only under submission
	// pressure). Requires a Store.
	MaxResident int
	// GCInterval is the janitor cadence (0 = 30s; the janitor only runs
	// when SessionTTL or a Store is configured).
	GCInterval time.Duration

	// SubmitRate enables the token-bucket admission gate: sustained
	// non-deduped submissions per second (0 = unlimited). SubmitBurst is
	// the bucket size (0 = max(1, ceil(SubmitRate))).
	SubmitRate  float64
	SubmitBurst int

	// Faults is the failure-injection set production code consults
	// (nil = never fires).
	Faults *fault.Set

	// Registry receives the manager's metrics (counters, gauges, latency
	// and round-phase histograms); nil builds a private one. Share a
	// registry to expose several components on one /v1/metrics page.
	Registry *obs.Registry
	// Tracer records request/session spans (nil builds a bounded default
	// named "popserve"). The transport's trace middleware and the
	// /v1/trace/{id} endpoint read it.
	Tracer *obs.Tracer
}

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.NumCPU()
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 4096
	}
	if c.StepQuantum <= 0 {
		c.StepQuantum = 64
	}
	if c.SessionWorkers <= 0 {
		c.SessionWorkers = 1
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 256
	}
	if c.MaxResident <= 0 || c.MaxResident > c.MaxSessions {
		c.MaxResident = c.MaxSessions
	}
	if c.GCInterval <= 0 {
		c.GCInterval = 30 * time.Second
	}
	return c
}

// Status is a job's lifecycle state.
type Status string

// Job statuses. A done job revives to running if more rounds are requested
// (manual stepping past the original target).
const (
	// StatusQueued: submitted, session not yet built or waiting for its
	// first pool slot.
	StatusQueued Status = "queued"
	// StatusRunning: the runner holds (or is acquiring) a pool slot.
	StatusRunning Status = "running"
	// StatusPaused: parked by request; Resume or Step continues it.
	StatusPaused Status = "paused"
	// StatusDone: the requested rounds have run to completion.
	StatusDone Status = "done"
	// StatusFailed: the session could not be built or restored, or its
	// runner panicked (Error carries the recovered panic and stack).
	StatusFailed Status = "failed"
)

// Sentinel errors the transport maps to distinct status codes (the mapping
// itself lives in api.go's statusOf).
var (
	// ErrClosed: the manager is draining; no new work is admitted.
	ErrClosed = errors.New("serve: manager closed")
	// ErrHibernated: a stale job handle whose session was hibernated or
	// reaped; re-resolve through Manager.Get.
	ErrHibernated = errors.New("serve: session hibernated; re-fetch it")
	// ErrInvalidSpec: the submission's spec cannot describe a simulation.
	ErrInvalidSpec = errors.New("serve: invalid spec")
	// ErrSessionFailed: the session is terminal-failed.
	ErrSessionFailed = errors.New("serve: session failed")
	// ErrUnknownSession: the ID was never seen by this manager.
	ErrUnknownSession = errors.New("serve: unknown session")
	// ErrSessionExpired: the ID was valid but its session was reaped after
	// SessionTTL — durably gone, distinguishable from a typo.
	ErrSessionExpired = errors.New("serve: session expired (reaped after TTL)")
	// ErrNoResult: no job answers for the requested spec hash.
	ErrNoResult = errors.New("serve: no result for spec hash")
	// ErrResultPending: the spec hash is known but its run is not done.
	ErrResultPending = errors.New("serve: result not ready")
)

// ThrottledError reports admission-gate rejection with a backoff hint.
type ThrottledError struct {
	// RetryAfter estimates when a token will be available.
	RetryAfter time.Duration
}

// Error implements error.
func (e *ThrottledError) Error() string {
	return fmt.Sprintf("serve: submission rate limited, retry after %s", e.RetryAfter.Round(time.Millisecond))
}

// errFull reports a registry at capacity with nothing hibernatable.
var errFull = errors.New("serve: session limit reached")

// Metrics is a point-in-time snapshot of the manager's counters.
type Metrics struct {
	// Submissions counts every Submit and Restore call accepted.
	Submissions uint64 `json:"submissions"`
	// SimRuns counts jobs whose engine was actually built and run
	// (dedupe misses plus restores, recoveries, and revivals; failed
	// builds excluded): the number the result cache is measured against.
	SimRuns uint64 `json:"sim_runs"`
	// DedupeHits counts submissions answered by an existing job.
	DedupeHits uint64 `json:"dedupe_hits"`
	// Completed and Failed count terminal transitions; Panics the subset
	// of failures that were recovered runner panics.
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Panics    uint64 `json:"panics,omitempty"`
	// Throttled counts submissions rejected by the admission gate.
	Throttled uint64 `json:"throttled,omitempty"`
	// Checkpoint/recovery/eviction counters.
	Checkpoints      uint64 `json:"checkpoints,omitempty"`
	CheckpointErrors uint64 `json:"checkpoint_errors,omitempty"`
	Recovered        uint64 `json:"recovered,omitempty"`
	Hibernated       uint64 `json:"hibernated,omitempty"`
	Revived          uint64 `json:"revived,omitempty"`
	Reaped           uint64 `json:"reaped,omitempty"`
	// Sessions is the resident registry size; ActiveRunners the jobs
	// currently holding or awaiting a pool slot.
	Sessions      int `json:"sessions"`
	ActiveRunners int `json:"active_runners"`
}

// Readiness is the load-balancer view of the manager's capacity.
type Readiness struct {
	// Ready: accepting work (not draining, registry below cap, admission
	// gate open). Saturation of the slot pool alone does not flip Ready —
	// runs queue — but it is reported so balancers can weigh replicas.
	Ready bool `json:"ready"`
	// Draining: Shutdown/Close has begun.
	Draining bool `json:"draining"`
	// SlotsInUse / Slots describe step-pool saturation.
	SlotsInUse int `json:"slots_in_use"`
	Slots      int `json:"slots"`
	// Sessions / MaxSessions describe registry pressure.
	Sessions    int `json:"sessions"`
	MaxSessions int `json:"max_sessions"`
	// AdmissionOpen: the token bucket has a token (always true without a
	// gate).
	AdmissionOpen bool `json:"admission_open"`
}

// JobInfo is the JSON view of one job.
type JobInfo struct {
	ID     string       `json:"id"`
	Status Status       `json:"status"`
	Spec   popstab.Spec `json:"spec"`
	// Hash is the spec's content address (the /v1/results key); empty for
	// snapshot restores, whose state is not content-addressed.
	Hash         string               `json:"hash,omitempty"`
	TargetRounds uint64               `json:"target_rounds"`
	Restored     bool                 `json:"restored,omitempty"`
	Stats        popstab.SessionStats `json:"stats"`
	Error        string               `json:"error,omitempty"`
}

// Manager multiplexes sessions; create with NewManager. Safe for
// concurrent use.
type Manager struct {
	cfg    Config
	slots  chan struct{}
	store  CheckpointStore
	faults *fault.Set
	gate   *TokenBucket

	mu         sync.Mutex
	jobs       map[string]*Job
	byKey      map[string]*Job // dedupe cache: spec hash + target → job
	hibernated map[string]bool // ids spilled to the store, revivable by Get
	// reaped tombstones let Lookup answer 410 Gone (expired) instead of 404
	// (never existed) for IDs the janitor removed. Bounded: reapedOrder is a
	// FIFO ring of maxReapedTombstones entries.
	reaped      map[string]bool
	reapedOrder []string
	nextID      uint64
	// closed is set under mu when draining begins, so admission checks made
	// under mu see a consistent registry; it is read lock-free everywhere.
	closed atomic.Bool

	// shutdownCh is closed when draining begins: runners blocked on slot
	// acquisition and SSE streams select on it.
	shutdownCh chan struct{}
	// runners tracks live runner goroutines so Shutdown can wait for the
	// pool to quiesce before checkpointing.
	runners sync.WaitGroup
	// janitorStop ends the GC goroutine (nil when no janitor runs).
	janitorStop chan struct{}

	// obsPlane carries the registry-backed counters (named exactly as the
	// atomic fields they replaced), latency histograms, and tracer; active
	// stays a plain atomic because it is an up/down int the gauge function
	// reads directly.
	obsPlane
	active atomic.Int64
}

// NewManager builds a manager with cfg's pool bounds and failure model.
func NewManager(cfg Config) *Manager {
	raw := cfg
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	tracer := cfg.Tracer
	if tracer == nil {
		tracer = obs.NewTracer("popserve", 0, 0)
	}
	m := &Manager{
		cfg:        cfg,
		slots:      make(chan struct{}, cfg.MaxConcurrent),
		store:      cfg.Store,
		faults:     cfg.Faults,
		jobs:       make(map[string]*Job),
		byKey:      make(map[string]*Job),
		hibernated: make(map[string]bool),
		reaped:     make(map[string]bool),
		shutdownCh: make(chan struct{}),
		obsPlane:   newObsPlane(reg, tracer),
	}
	m.registerGauges()
	if cfg.SubmitRate > 0 {
		m.gate = NewTokenBucket(cfg.SubmitRate, cfg.SubmitBurst)
	}
	// The janitor only runs when it has work: TTL reaping or a residency
	// watermark below the registry cap.
	if cfg.SessionTTL > 0 || (m.store != nil && raw.MaxResident > 0) {
		m.janitorStop = make(chan struct{})
		go m.janitor()
	}
	return m
}

// Job is one managed session. Mutable fields behind mu; the runner
// goroutine and the transport handlers synchronize only through it.
type Job struct {
	m *Manager

	// Immutable after creation.
	id       string
	spec     popstab.Spec
	key      string // dedupe key at registration; "" when never cached
	restored bool   // built from a snapshot (restore, recovery, revival)
	// trace is the submission's trace ID (extracted from the request
	// context): the runner's build/run spans land under it, correlating
	// server-side work with the submitting request across the fleet. Empty
	// for recovered/revived jobs — their submitter is long gone.
	trace string

	// lastTouch (unix nanos) orders hibernation/reaping candidates without
	// taking j.mu.
	lastTouch atomic.Int64

	mu       sync.Mutex
	cond     *sync.Cond
	sess     *popstab.Session
	snapshot []byte // restore source; nil for fresh jobs, consumed by build
	status   Status
	err      error
	stats    popstab.SessionStats
	target   uint64 // total rounds requested so far
	pending  uint64 // rounds not yet run
	paused   bool
	// stepping: the runner is inside a step quantum with j.mu released;
	// snapshot/hibernation wait for it to clear (cond-signaled).
	stepping bool
	// snapshotters counts Snapshot calls waiting for the quantum to park.
	// The runner yields between quanta while it is nonzero — without the
	// yield a waiter woken by the end-of-quantum broadcast races the
	// runner's immediate re-lock and loses essentially every time,
	// livelocking the snapshot until the job finishes.
	snapshotters int
	// parted: hibernated or reaped — no longer resident; the runner exits
	// and stale handles error with ErrHibernated.
	parted bool
	// sinceCkpt counts rounds since the last durable checkpoint.
	sinceCkpt uint64
	// countedDone suppresses double-counting Completed across revivals.
	countedDone bool
	// phase mirrors the session's cumulative RoundStats as of the last
	// completed quantum: the SSE stream and RoundStats() read it without
	// touching the session (which only the runner may drive).
	phase   popstab.RoundStats
	subs    map[uint64]chan popstab.SessionStats
	nextSub uint64

	// done is closed on the FIRST arrival at StatusDone (or StatusFailed)
	// and stays closed: the completion signal batch clients wait on.
	done     chan struct{}
	doneOnce sync.Once
	// built is closed by the runner once the session build ends, with or
	// without an error, and the job's first resting status is set. Readers
	// of restored jobs wait on it: until then their status and stats are
	// placeholders, not a state the restored session was ever in.
	built chan struct{}
}

// touch records an access for LRU ordering.
func (j *Job) touch() { j.lastTouch.Store(time.Now().UnixNano()) }

// evict removes the job from the dedupe cache so future identical
// submissions start a fresh run (no-op for never-cached jobs). j.key is
// immutable and j.mu is NOT held here; the only nested lock order in the
// package remains j.mu → m.mu.
func (j *Job) evict() {
	if j.key == "" {
		return
	}
	j.m.mu.Lock()
	if j.m.byKey[j.key] == j {
		delete(j.m.byKey, j.key)
	}
	j.m.mu.Unlock()
}

// cachedLocked reports whether j currently answers for its dedupe key.
// Caller may hold j.mu (j.mu → m.mu is the only lock order).
func (m *Manager) cachedLocked(j *Job) bool {
	if j.key == "" {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.byKey[j.key] == j
}

// jobKey is the dedupe identity of a fresh submission.
func jobKey(hash string, rounds uint64) string {
	return fmt.Sprintf("%s/%d", hash, rounds)
}

// Submit registers (or dedupes) a job that runs spec for rounds rounds.
// rounds = 0 opens an idle session for manual stepping. The returned bool
// reports a dedupe hit: the job was already running or complete and the
// caller attached to it. Non-deduped submissions pass the admission gate
// (*ThrottledError on rejection) and, at registry capacity with a Store,
// may hibernate an idle session to make room.
func (m *Manager) Submit(ctx context.Context, spec popstab.Spec, rounds uint64) (*Job, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	defer func(t time.Time) { m.submitSeconds.Observe(time.Since(t).Seconds()) }(time.Now())
	hash, err := spec.Hash()
	if err != nil {
		return nil, false, fmt.Errorf("%w: %v", ErrInvalidSpec, err)
	}
	key := jobKey(hash, rounds)

	for attempt := 0; ; attempt++ {
		m.mu.Lock()
		if m.closed.Load() {
			m.mu.Unlock()
			return nil, false, ErrClosed
		}
		if j, ok := m.byKey[key]; ok {
			m.submissions.Add(1)
			m.dedupeHits.Add(1)
			m.mu.Unlock()
			j.touch()
			return j, true, nil
		}
		if len(m.jobs) >= m.cfg.MaxSessions {
			m.mu.Unlock()
			// Capacity pressure: spill the least-recently-touched idle
			// session to the store and retry once.
			if attempt == 0 && m.hibernateOne() {
				continue
			}
			return nil, false, fmt.Errorf("%w (%d)", errFull, m.cfg.MaxSessions)
		}
		if retry, ok := m.admitLocked(); !ok {
			m.mu.Unlock()
			m.throttled.Add(1)
			return nil, false, &ThrottledError{RetryAfter: retry}
		}
		j := m.newJobLocked(spec, rounds, nil, key, false, obs.TraceID(ctx))
		m.byKey[key] = j
		m.mu.Unlock()
		return j, false, nil
	}
}

// admitLocked consults the admission gate (caller holds m.mu).
func (m *Manager) admitLocked() (time.Duration, bool) {
	if m.gate == nil {
		return 0, true
	}
	return m.gate.Admit(time.Now())
}

// Restore registers a job that resumes the given session snapshot under
// spec and then runs rounds more rounds. Restored jobs bypass the dedupe
// cache (their state is not derivable from the spec alone) but not the
// admission gate. paused parks the job on arrival — the coordinator uses
// this to migrate a paused session without racing rounds on the new host.
func (m *Manager) Restore(ctx context.Context, spec popstab.Spec, snapshot []byte, rounds uint64, paused bool) (*Job, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	defer func(t time.Time) { m.submitSeconds.Observe(time.Since(t).Seconds()) }(time.Now())
	if len(snapshot) == 0 {
		return nil, fmt.Errorf("%w: empty snapshot", ErrInvalidSpec)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed.Load() {
		return nil, ErrClosed
	}
	if len(m.jobs) >= m.cfg.MaxSessions {
		return nil, fmt.Errorf("%w (%d)", errFull, m.cfg.MaxSessions)
	}
	if retry, ok := m.admitLocked(); !ok {
		m.throttled.Add(1)
		return nil, &ThrottledError{RetryAfter: retry}
	}
	return m.newJobLocked(spec, rounds, snapshot, "", paused, obs.TraceID(ctx)), nil
}

// newJobLocked allocates, registers, and starts a job. Caller holds m.mu
// and has verified capacity.
func (m *Manager) newJobLocked(spec popstab.Spec, rounds uint64, snapshot []byte, key string, paused bool, trace string) *Job {
	// Sessions inherit the manager's worker setting unless the spec pins
	// its own; either way the trajectory is identical.
	if spec.Workers == 0 {
		spec.Workers = m.cfg.SessionWorkers
	}
	m.nextID++
	j := &Job{
		m:        m,
		id:       fmt.Sprintf("s-%06d", m.nextID),
		spec:     spec,
		key:      key,
		restored: snapshot != nil,
		trace:    trace,
		snapshot: snapshot,
		target:   rounds,
		status:   StatusQueued,
		pending:  rounds,
		paused:   paused,
		subs:     make(map[uint64]chan popstab.SessionStats),
		done:     make(chan struct{}),
		built:    make(chan struct{}),
	}
	j.cond = sync.NewCond(&j.mu)
	j.touch()
	m.jobs[j.id] = j
	m.submissions.Add(1)
	m.runners.Add(1)
	go j.run()
	return j
}

// Get looks a job up by ID, transparently reviving a hibernated one from
// the checkpoint store.
func (m *Manager) Get(id string) (*Job, bool) {
	j, err := m.Lookup(id)
	return j, err == nil
}

// Lookup resolves an ID like Get but classifies the miss: ErrSessionExpired
// for an ID the janitor reaped after its TTL (the transport answers 410
// Gone), ErrUnknownSession for an ID never seen here (404) — so a sweep
// client can tell an expired session from a typo.
func (m *Manager) Lookup(id string) (*Job, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	hib := !ok && m.hibernated[id]
	expired := !ok && !hib && m.reaped[id]
	m.mu.Unlock()
	if ok {
		j.touch()
		return j, nil
	}
	if hib && m.store != nil {
		if j, ok := m.revive(id); ok {
			return j, nil
		}
	}
	if expired {
		return nil, fmt.Errorf("%w: %s", ErrSessionExpired, id)
	}
	return nil, fmt.Errorf("%w: %s", ErrUnknownSession, id)
}

// maxReapedTombstones bounds the 410-Gone memory: the oldest tombstones
// degrade to 404 once the ring wraps.
const maxReapedTombstones = 4096

// recordReaped tombstones a reaped ID (caller does NOT hold m.mu).
func (m *Manager) recordReaped(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.reaped[id] {
		return
	}
	if len(m.reapedOrder) >= maxReapedTombstones {
		delete(m.reaped, m.reapedOrder[0])
		m.reapedOrder = m.reapedOrder[1:]
	}
	m.reaped[id] = true
	m.reapedOrder = append(m.reapedOrder, id)
}

// List returns every resident job's info, ordered by ID.
func (m *Manager) List() []JobInfo {
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	out := make([]JobInfo, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Info())
	}
	// Insertion sort by id; registries are small and ids are ordered.
	for i := 1; i < len(out); i++ {
		for k := i; k > 0 && out[k].ID < out[k-1].ID; k-- {
			out[k], out[k-1] = out[k-1], out[k]
		}
	}
	return out
}

// Metrics snapshots the counters.
func (m *Manager) Metrics() Metrics {
	m.mu.Lock()
	sessions := len(m.jobs)
	m.mu.Unlock()
	return Metrics{
		Submissions:      m.submissions.Value(),
		SimRuns:          m.simRuns.Value(),
		DedupeHits:       m.dedupeHits.Value(),
		Completed:        m.completed.Value(),
		Failed:           m.failed.Value(),
		Panics:           m.panics.Value(),
		Throttled:        m.throttled.Value(),
		Checkpoints:      m.checkpoints.Value(),
		CheckpointErrors: m.ckptErrors.Value(),
		Recovered:        m.recovered.Value(),
		Hibernated:       m.hibernations.Value(),
		Revived:          m.revivals.Value(),
		Reaped:           m.reaps.Value(),
		Sessions:         sessions,
		ActiveRunners:    int(m.active.Load()),
	}
}

// ResultByHash resolves the content-addressed result store: among the jobs
// currently answering for dedupe keys with the given spec-hash prefix, the
// completed one with the most rounds wins. ErrResultPending when the hash is
// known but still running; ErrNoResult when nothing answers for it. This is
// the worker half of the fleet result store — the coordinator keeps the
// hash index, the worker keeps the bytes.
func (m *Manager) ResultByHash(hash string) (*Job, error) {
	prefix := hash + "/"
	type candidate struct {
		j      *Job
		rounds uint64
	}
	// Collect under m.mu and inspect the jobs after releasing it: taking
	// j.mu under m.mu would invert the package's lock order.
	var cands []candidate
	m.mu.Lock()
	for key, j := range m.byKey {
		if !strings.HasPrefix(key, prefix) {
			continue
		}
		if rounds, err := strconv.ParseUint(key[len(prefix):], 10, 64); err == nil {
			cands = append(cands, candidate{j, rounds})
		}
	}
	m.mu.Unlock()
	var (
		best       *Job
		bestRounds uint64
		pending    bool
	)
	for _, c := range cands {
		c.j.awaitBuilt()
		c.j.mu.Lock()
		done := c.j.status == StatusDone
		c.j.mu.Unlock()
		if !done {
			pending = true
			continue
		}
		if best == nil || c.rounds > bestRounds {
			best, bestRounds = c.j, c.rounds
		}
	}
	switch {
	case best != nil:
		best.touch()
		return best, nil
	case pending:
		return nil, fmt.Errorf("%w: %s", ErrResultPending, hash)
	default:
		return nil, fmt.Errorf("%w: %s", ErrNoResult, hash)
	}
}

// Readiness reports capacity for load balancers (the /readyz payload).
func (m *Manager) Readiness() Readiness {
	m.mu.Lock()
	sessions := len(m.jobs)
	m.mu.Unlock()
	closed := m.closed.Load()
	open := m.gate == nil || m.gate.Open(time.Now())
	return Readiness{
		Ready:         !closed && sessions < m.cfg.MaxSessions && open,
		Draining:      closed,
		SlotsInUse:    len(m.slots),
		Slots:         m.cfg.MaxConcurrent,
		Sessions:      sessions,
		MaxSessions:   m.cfg.MaxSessions,
		AdmissionOpen: open,
	}
}

// ShuttingDown is closed when draining begins; long-lived handlers (SSE
// streams) select on it so http.Server.Shutdown can complete.
func (m *Manager) ShuttingDown() <-chan struct{} { return m.shutdownCh }

// Close drains with no deadline: stop admissions, wake and wait out every
// runner, checkpoint live sessions. Equivalent to Shutdown(Background).
func (m *Manager) Close() { _ = m.Shutdown(context.Background()) }

// Shutdown drains gracefully: stop admissions, wake every runner and wait
// for in-flight quanta to park (runners exit within one quantum), then
// write a final checkpoint for every live session so a restarted manager
// can Recover them. Returns ctx.Err if the pool does not quiesce in time
// (sessions then checkpoint at their last cadence point instead).
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	first := !m.closed.Swap(true)
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	if first {
		close(m.shutdownCh)
		if m.janitorStop != nil {
			close(m.janitorStop)
		}
	}
	for _, j := range jobs {
		j.mu.Lock()
		j.cond.Broadcast()
		j.mu.Unlock()
	}
	quiesced := make(chan struct{})
	go func() {
		m.runners.Wait()
		close(quiesced)
	}()
	select {
	case <-quiesced:
	case <-ctx.Done():
		return ctx.Err()
	}
	if m.store != nil {
		for _, j := range jobs {
			j.checkpointNow()
		}
	}
	return nil
}

// isClosed reports manager shutdown. It takes no lock, so it is safe under
// any job's mu.
func (m *Manager) isClosed() bool { return m.closed.Load() }

// acquireSlot blocks for a pool slot, aborting on drain. The active gauge
// covers the wait (ActiveRunners = holding or awaiting).
func (m *Manager) acquireSlot() bool {
	m.active.Add(1)
	select {
	case m.slots <- struct{}{}:
		return true
	case <-m.shutdownCh:
		m.active.Add(-1)
		return false
	}
}

// releaseSlot returns a slot acquired by acquireSlot.
func (m *Manager) releaseSlot() {
	<-m.slots
	m.active.Add(-1)
}

// run is the job's runner goroutine: build (or restore) the session, then
// alternate between waiting for work and stepping one quantum under a pool
// slot. Panics in build or step are isolated into StatusFailed; the pool
// slot is provably returned (release is deferred around the recovering
// step call).
func (j *Job) run() {
	defer j.m.runners.Done()
	endBuild := j.m.tracer.Start(j.trace, "build")
	sess, err := j.buildSession()
	if err != nil {
		endBuild("session", j.id, "error", err.Error())
	} else {
		endBuild("session", j.id)
	}
	j.mu.Lock()
	if err != nil {
		j.failLocked(err)
		close(j.built)
		j.mu.Unlock()
		// A failed build must not keep answering for its (hash, rounds)
		// identity: evict so a retry runs instead of deduping onto the
		// corpse, and drop any checkpoint so recovery does not resurrect
		// the poison.
		j.evict()
		j.dropCheckpoint()
		return
	}
	// Counted here, after the constructor succeeded: SimRuns is "engines
	// actually run", so failed builds and corrupt restores don't inflate
	// the metric the dedupe verdict is measured against.
	j.m.simRuns.Add(1)
	j.sess = sess
	j.stats = sess.Stats()
	j.phase = sess.RoundStats()
	j.snapshot = nil // the restore source is consumed; don't hold the bytes
	// Settle the first resting status before built is closed, so a
	// restored done or paused session never reads as queued.
	if j.pending == 0 || j.paused {
		j.settleLocked()
	}
	close(j.built)
	j.cond.Broadcast()
	j.mu.Unlock()

	for {
		j.mu.Lock()
		for j.pending == 0 || j.paused {
			if j.m.isClosed() || j.parted {
				j.mu.Unlock()
				return
			}
			j.settleLocked()
			j.cond.Wait()
		}
		if j.m.isClosed() || j.parted {
			j.mu.Unlock()
			return
		}
		n := uint64(j.m.cfg.StepQuantum)
		if n > j.pending {
			n = j.pending
		}
		j.status = StatusRunning
		j.mu.Unlock()

		// Yield to queued snapshotters before entering the next quantum:
		// they hold priority, otherwise the runner's immediate re-lock
		// wins the wakeup race every time and a waiter starves for the
		// rest of the run.
		j.mu.Lock()
		for j.snapshotters > 0 && !j.parted && !j.m.isClosed() {
			j.cond.Wait()
		}
		if j.m.isClosed() || j.parted {
			j.mu.Unlock()
			return
		}
		j.mu.Unlock()

		// Acquire the pool slot outside the job lock so control calls
		// (pause, snapshot of the pre-quantum state) stay responsive
		// while the pool is saturated; abort cleanly on drain.
		if !j.m.acquireSlot() {
			return
		}
		j.mu.Lock()
		if j.paused {
			// A Pause landed while the slot was awaited; it has already
			// returned, promising no further rounds.
			j.mu.Unlock()
			j.m.releaseSlot()
			continue
		}
		j.stepping = true
		j.mu.Unlock()

		endRun := j.m.tracer.Start(j.trace, "run")
		tq := time.Now()
		stats, err := j.step(sess, n) // recovers panics; releases nothing
		j.m.stepSeconds.Observe(time.Since(tq).Seconds())
		endRun("session", j.id, "rounds", strconv.FormatUint(n, 10))
		// RoundStats is read on the runner goroutine (only it may touch the
		// session) and mirrored under j.mu for SSE/API readers; the quantum
		// delta feeds the per-phase histograms.
		roundStats := sess.RoundStats()

		j.mu.Lock()
		j.stepping = false
		phaseDelta := roundStats.Sub(j.phase)
		j.phase = roundStats
		if err != nil {
			j.failLocked(err)
			j.cond.Broadcast()
			j.mu.Unlock()
			j.m.releaseSlot()
			j.evict()
			j.dropCheckpoint()
			return
		}
		j.pending -= n
		j.sinceCkpt += n
		j.stats = stats
		j.publishLocked(stats)
		finished := j.pending == 0 && !j.paused
		if finished {
			j.finishLocked()
		}
		needCkpt := j.m.store != nil &&
			(j.sinceCkpt >= uint64(j.m.cfg.CheckpointEvery) || finished)
		j.cond.Broadcast()
		j.mu.Unlock()
		j.m.releaseSlot()
		j.m.observePhases(phaseDelta)

		if needCkpt {
			j.checkpointNow()
		}
	}
}

// buildSession constructs or restores the session, converting panics in
// the engine constructors into errors.
func (j *Job) buildSession() (sess *popstab.Session, err error) {
	defer func() {
		if r := recover(); r != nil {
			j.m.panics.Add(1)
			err = fmt.Errorf("serve: session build panic: %v\n%s", r, debug.Stack())
		}
	}()
	if j.snapshot != nil {
		return popstab.RestoreSessionFromSpec(j.spec, j.snapshot)
	}
	return popstab.NewSessionFromSpec(j.spec)
}

// step advances one quantum with panic isolation: a panic (organic or
// injected via fault.RunnerPanic) is recovered into an error carrying the
// stack, so the caller always regains control — and with it the pool slot.
func (j *Job) step(sess *popstab.Session, n uint64) (stats popstab.SessionStats, err error) {
	defer func() {
		if r := recover(); r != nil {
			j.m.panics.Add(1)
			err = fmt.Errorf("serve: runner panic: %v\n%s", r, debug.Stack())
		}
	}()
	// Latency injection (armed with a delay, no error) and failure
	// injection share the SlowStep/RunnerPanic consultation points.
	if ferr := j.m.faults.Fire(fault.SlowStep); ferr != nil {
		return stats, ferr
	}
	if ferr := j.m.faults.Fire(fault.RunnerPanic); ferr != nil {
		panic(ferr)
	}
	return sess.Step(int(n)), nil
}

// checkpointNow captures and durably writes the job's checkpoint. Called
// by the runner between quanta, by Shutdown after the pool quiesced, and
// by hibernation — never concurrently with a step (stepping is false under
// j.mu in all three). Write failures are counted, not fatal: the previous
// checkpoint remains intact (FSStore renames atomically), so recovery
// degrades to an older bit-identical resume point.
func (j *Job) checkpointNow() {
	if j.m.store == nil {
		return
	}
	if err := j.m.faults.Fire(fault.SnapshotEncode); err != nil {
		j.m.ckptErrors.Add(1)
		return
	}
	j.mu.Lock()
	if j.sess == nil || j.status == StatusFailed || j.parted {
		j.mu.Unlock()
		return
	}
	cp := Checkpoint{
		ID:      j.id,
		Spec:    j.spec,
		Target:  j.target,
		Pending: j.pending,
		Paused:  j.paused,
		Dedupe:  j.m.cachedLocked(j),
		Snapshot: j.m.observeSnapshot(func() []byte {
			return j.sess.Snapshot()
		}),
	}
	j.sinceCkpt = 0
	j.mu.Unlock()
	if err := j.m.store.Put(cp); err != nil {
		j.m.ckptErrors.Add(1)
		return
	}
	j.m.checkpoints.Add(1)
}

// dropCheckpoint removes the job's durable record (failed jobs are
// terminal; a retry is a fresh submission, not a resurrection).
func (j *Job) dropCheckpoint() {
	if j.m.store != nil {
		_ = j.m.store.Delete(j.id)
	}
}

// Recover re-registers every checkpointed job from the store and resumes
// its outstanding rounds: the startup half of crash safety. Jobs that held
// their dedupe identity at checkpoint time rejoin the cache. Returns the
// number of jobs recovered.
func (m *Manager) Recover() (int, error) {
	if m.store == nil {
		return 0, errors.New("serve: no checkpoint store configured")
	}
	cps, err := m.store.List()
	if err != nil {
		return 0, err
	}
	n := 0
	m.mu.Lock()
	for _, cp := range cps {
		if m.closed.Load() {
			break
		}
		if _, ok := m.jobs[cp.ID]; ok {
			continue
		}
		m.registerCheckpointLocked(cp)
		n++
	}
	m.mu.Unlock()
	m.recovered.Add(uint64(n))
	return n, nil
}

// revive rebuilds one hibernated job from the store on access.
func (m *Manager) revive(id string) (*Job, bool) {
	cp, ok, err := m.store.Get(id)
	if err != nil || !ok {
		return nil, false
	}
	m.mu.Lock()
	if j, ok := m.jobs[id]; ok { // racing revival won
		m.mu.Unlock()
		j.touch()
		return j, true
	}
	if m.closed.Load() {
		m.mu.Unlock()
		return nil, false
	}
	j := m.registerCheckpointLocked(cp)
	m.mu.Unlock()
	m.revivals.Add(1)
	return j, true
}

// registerCheckpointLocked builds a job from a checkpoint under its
// original ID and starts its runner. Caller holds m.mu. Workers is a
// serving-layer throughput knob excluded from the simulation's identity,
// so the recovering manager imposes its own setting — recovery routinely
// crosses worker counts at the kill boundary and the continuation is
// bit-identical regardless.
func (m *Manager) registerCheckpointLocked(cp Checkpoint) *Job {
	spec := cp.Spec
	spec.Workers = m.cfg.SessionWorkers
	j := &Job{
		m:        m,
		id:       cp.ID,
		spec:     spec,
		restored: true,
		snapshot: cp.Snapshot,
		target:   cp.Target,
		status:   StatusQueued,
		pending:  cp.Pending,
		paused:   cp.Paused,
		// Already-terminal checkpoints re-finish without re-counting.
		countedDone: cp.Pending == 0,
		subs:        make(map[uint64]chan popstab.SessionStats),
		done:        make(chan struct{}),
		built:       make(chan struct{}),
	}
	j.cond = sync.NewCond(&j.mu)
	j.touch()
	if cp.Dedupe {
		if hash, err := cp.Spec.Hash(); err == nil {
			key := jobKey(hash, cp.Target)
			if m.byKey[key] == nil {
				j.key = key
				m.byKey[key] = j
			}
		}
	}
	m.jobs[j.id] = j
	delete(m.hibernated, j.id)
	// Keep fresh IDs ahead of every recovered one.
	var seq uint64
	if _, err := fmt.Sscanf(cp.ID, "s-%d", &seq); err == nil && seq > m.nextID {
		m.nextID = seq
	}
	m.runners.Add(1)
	go j.run()
	return j
}

// settleLocked sets the resting status of a runner with no quantum to run:
// done when no rounds are pending, else paused. Long-pollers (Job.Wait)
// observe the transition through the broadcast.
func (j *Job) settleLocked() {
	if j.pending == 0 {
		j.finishLocked()
		return
	}
	if j.status != StatusPaused {
		j.status = StatusPaused
		j.cond.Broadcast()
	}
}

// finishLocked marks the job done (idempotent) and signals completion.
// Completion counts as a touch: the TTL clock starts when the run settles,
// not when it was submitted.
func (j *Job) finishLocked() {
	j.touch()
	if j.status != StatusDone {
		j.status = StatusDone
		if !j.countedDone {
			j.countedDone = true
			j.m.completed.Add(1)
		}
		j.cond.Broadcast()
	}
	j.doneOnce.Do(func() { close(j.done) })
}

// failLocked marks the job failed and signals completion.
func (j *Job) failLocked(err error) {
	j.touch()
	j.status = StatusFailed
	j.err = err
	j.m.failed.Add(1)
	j.doneOnce.Do(func() { close(j.done) })
	j.cond.Broadcast()
}

// publishLocked fans stats out to subscribers, dropping events a slow
// subscriber has no buffer for (streams are a lossy progress feed; the
// authoritative state is Info).
func (j *Job) publishLocked(stats popstab.SessionStats) {
	for _, ch := range j.subs {
		select {
		case ch <- stats:
		default:
		}
	}
}

// ID returns the job's registry ID.
func (j *Job) ID() string { return j.id }

// Trace returns the trace ID the job was submitted under ("" when the
// submitter carried none, e.g. recovered jobs).
func (j *Job) Trace() string { return j.trace }

// RoundStats reports the session's cumulative per-phase cost counters as of
// the last completed quantum. Kept outside JobInfo/SessionStats on purpose:
// timings are host-local observability, while stats are deterministic
// simulation content compared bit-for-bit across hosts by the failover
// tests.
func (j *Job) RoundStats() popstab.RoundStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.phase
}

// Done returns a channel closed when the job first completes or fails.
func (j *Job) Done() <-chan struct{} { return j.done }

// awaitBuilt blocks until a restored job's session is built, so its first
// reader sees the restored state rather than the queued placeholder. Fresh
// jobs return at once: queued at round 0 is a state they really are in.
// Callers must hold no lock.
func (j *Job) awaitBuilt() {
	if j.restored {
		<-j.built
	}
}

// Info snapshots the job's state.
func (j *Job) Info() JobInfo {
	j.touch()
	j.awaitBuilt()
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.infoLocked()
}

// wakeOnDone arranges a broadcast on j.cond when ctx ends, so a cond wait
// loop can observe the expiry (cond.Wait cannot select on ctx). The
// returned func cancels the arrangement.
func (j *Job) wakeOnDone(ctx context.Context) (stop func() bool) {
	return context.AfterFunc(ctx, func() {
		j.mu.Lock()
		j.cond.Broadcast()
		j.mu.Unlock()
	})
}

// infoLocked builds the JSON view; caller holds j.mu.
func (j *Job) infoLocked() JobInfo {
	info := JobInfo{
		ID:           j.id,
		Status:       j.status,
		Spec:         j.spec,
		TargetRounds: j.target,
		Restored:     j.restored,
		Stats:        j.stats,
	}
	if j.key != "" {
		info.Hash, _, _ = strings.Cut(j.key, "/")
	}
	if j.err != nil {
		info.Error = j.err.Error()
	}
	return info
}

// Wait blocks — under ctx — until the job's status equals want or the job
// reaches a terminal state, and reports whether want was reached. A ctx
// expiry is a normal long-poll answer, not an error: the current info is
// returned with reached=false. This is the HTTP GET
// /v1/sessions/{id}/wait machinery, sharing the ctx-aware cond wait
// (wakeOnDone) of Pause and Snapshot.
func (j *Job) Wait(ctx context.Context, want Status) (JobInfo, bool, error) {
	j.touch()
	defer j.wakeOnDone(ctx)()
	j.mu.Lock()
	defer j.mu.Unlock()
	for {
		if j.parted {
			return JobInfo{}, false, ErrHibernated
		}
		reached := j.status == want
		terminal := j.status == StatusDone || j.status == StatusFailed
		if reached || terminal || ctx.Err() != nil || j.m.isClosed() {
			return j.infoLocked(), reached, nil
		}
		j.cond.Wait()
	}
}

// Step requests n more rounds (reviving a done job) and wakes the runner.
// Stepping mutates the job past the (hash, rounds) identity it was
// submitted under, so it is first evicted from the dedupe cache: future
// identical submissions must get a fresh run, not this job's moved-on
// state.
func (j *Job) Step(n uint64) error {
	if n == 0 {
		return errors.New("serve: step of 0 rounds")
	}
	j.touch()
	j.evict()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.parted {
		return ErrHibernated
	}
	if j.status == StatusFailed {
		return fmt.Errorf("%w: %v", ErrSessionFailed, j.err)
	}
	j.target += n
	j.pending += n
	if j.status == StatusDone {
		j.status = StatusQueued
	}
	j.cond.Broadcast()
	return nil
}

// Pause parks the job and waits — under ctx — for the runner to park: the
// session built and no quantum in flight. On a nil return the job runs no
// further rounds until Resume, so its stats are the paused state.
func (j *Job) Pause(ctx context.Context) error {
	j.touch()
	defer j.wakeOnDone(ctx)()
	j.mu.Lock()
	defer j.mu.Unlock()
	for {
		if j.parted {
			return ErrHibernated
		}
		if j.status == StatusFailed {
			return fmt.Errorf("%w: %v", ErrSessionFailed, j.err)
		}
		j.paused = true
		if j.sess != nil && !j.stepping {
			break
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		j.cond.Wait()
	}
	j.settleLocked()
	return nil
}

// Resume unparks a paused job.
func (j *Job) Resume() error {
	j.touch()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.parted {
		return ErrHibernated
	}
	if j.status == StatusFailed {
		return fmt.Errorf("%w: %v", ErrSessionFailed, j.err)
	}
	j.paused = false
	j.cond.Broadcast()
	return nil
}

// Snapshot serializes the session at a between-rounds boundary, waiting —
// under the caller's deadline — for any in-flight quantum to park, along
// with the spec needed to restore it.
func (j *Job) Snapshot(ctx context.Context) (popstab.Spec, []byte, error) {
	j.touch()
	defer j.wakeOnDone(ctx)()
	j.mu.Lock()
	defer j.mu.Unlock()
	// Register as a waiter: the runner yields between quanta while
	// snapshotters is nonzero (see Job.run), so this wait is bounded by
	// one quantum, not by the whole run. LIFO defers: the decrement runs
	// before the mutex is released.
	j.snapshotters++
	defer func() {
		j.snapshotters--
		j.cond.Broadcast()
	}()
	for j.stepping {
		if err := ctx.Err(); err != nil {
			return popstab.Spec{}, nil, err
		}
		j.cond.Wait()
	}
	if j.parted {
		return popstab.Spec{}, nil, ErrHibernated
	}
	if j.status == StatusFailed {
		return popstab.Spec{}, nil, fmt.Errorf("%w: %v", ErrSessionFailed, j.err)
	}
	if j.sess == nil {
		return popstab.Spec{}, nil, errors.New("serve: session still initializing")
	}
	return j.spec, j.m.observeSnapshot(func() []byte { return j.sess.Snapshot() }), nil
}

// Subscribe registers a stats feed with the given buffer (≥ 1) and returns
// it with an unsubscribe func. The channel receives one event per completed
// quantum, lossily; it is closed by unsubscribe, never by the publisher.
func (j *Job) Subscribe(buffer int) (<-chan popstab.SessionStats, func()) {
	if buffer < 1 {
		buffer = 1
	}
	ch := make(chan popstab.SessionStats, buffer)
	j.mu.Lock()
	id := j.nextSub
	j.nextSub++
	j.subs[id] = ch
	j.mu.Unlock()
	return ch, func() {
		j.mu.Lock()
		if _, ok := j.subs[id]; ok {
			delete(j.subs, id)
			close(ch)
		}
		j.mu.Unlock()
	}
}

// TokenBucket is a minimal token-bucket admission gate: rate tokens/second
// accruing up to burst. Exported so the coordinator (internal/cluster) can
// gate the fleet with the same mechanism that gates each worker.
type TokenBucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

// NewTokenBucket starts full; burst <= 0 defaults to ceil(rate) (min 1).
func NewTokenBucket(rate float64, burst int) *TokenBucket {
	if burst <= 0 {
		burst = int(math.Max(1, math.Ceil(rate)))
	}
	return &TokenBucket{rate: rate, burst: float64(burst), tokens: float64(burst), last: time.Now()}
}

// refillLocked advances the bucket to now.
func (b *TokenBucket) refillLocked(now time.Time) {
	if now.After(b.last) {
		b.tokens = math.Min(b.burst, b.tokens+now.Sub(b.last).Seconds()*b.rate)
		b.last = now
	}
}

// Admit consumes one token, or reports how long until one accrues.
func (b *TokenBucket) Admit(now time.Time) (time.Duration, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked(now)
	if b.tokens >= 1 {
		b.tokens--
		return 0, true
	}
	return time.Duration((1 - b.tokens) / b.rate * float64(time.Second)), false
}

// Open reports token availability without consuming (the readiness probe).
func (b *TokenBucket) Open(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked(now)
	return b.tokens >= 1
}
