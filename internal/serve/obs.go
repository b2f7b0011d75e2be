package serve

import (
	"time"

	"popstab"
	"popstab/internal/obs"
)

// obsPlane bundles the manager's registry-backed instruments (DESIGN.md
// §13). It is embedded in Manager so the counter fields keep their historic
// names at every call site; the counters ARE the registry's storage — the
// JSON Metrics endpoint and the Prometheus exposition read the same atomics,
// so the two views can never drift.
type obsPlane struct {
	registry *obs.Registry
	tracer   *obs.Tracer

	submissions, simRuns, dedupeHits *obs.Counter
	completed, failed, panics        *obs.Counter
	throttled                        *obs.Counter
	checkpoints, ckptErrors          *obs.Counter
	recovered, hibernations          *obs.Counter
	revivals, reaps                  *obs.Counter

	// Latency histograms: submission admission, one step quantum, one
	// session snapshot, and the per-round cost of each engine phase
	// (quantum deltas of popstab.RoundStats divided by the quantum's
	// rounds).
	submitSeconds   *obs.Histogram
	stepSeconds     *obs.Histogram
	snapshotSeconds *obs.Histogram
	phaseSeconds    map[string]*obs.Histogram
}

// phaseBuckets resolve the round-phase histograms: phases run from
// sub-microsecond (a small population's apply) to tens of milliseconds
// (a 2²⁰ spatial match), well below DefBuckets' latency range.
var phaseBuckets = []float64{
	1e-6, 5e-6, 25e-6, 1e-4, 5e-4, 2.5e-3, 1e-2, 5e-2, 0.25, 1,
}

// newObsPlane registers the manager's instruments on reg.
func newObsPlane(reg *obs.Registry, tracer *obs.Tracer) obsPlane {
	p := obsPlane{
		registry:    reg,
		tracer:      tracer,
		submissions: reg.Counter("popserve_submissions_total", "Submit and Restore calls accepted."),
		simRuns:     reg.Counter("popserve_sim_runs_total", "Jobs whose engine was actually built and run."),
		dedupeHits:  reg.Counter("popserve_dedupe_hits_total", "Submissions answered by an existing job."),
		completed:   reg.Counter("popserve_completed_total", "Jobs that reached done."),
		failed:      reg.Counter("popserve_failed_total", "Jobs that reached failed."),
		panics:      reg.Counter("popserve_panics_total", "Recovered runner and build panics."),
		throttled:   reg.Counter("popserve_throttled_total", "Submissions rejected by the admission gate."),
		checkpoints: reg.Counter("popserve_checkpoints_total", "Durable checkpoints written."),
		ckptErrors:  reg.Counter("popserve_checkpoint_errors_total", "Checkpoint writes that failed."),
		recovered:   reg.Counter("popserve_recovered_total", "Jobs re-registered from the store at startup."),
		hibernations: reg.Counter("popserve_hibernated_total",
			"Idle sessions spilled to the store under residency pressure."),
		revivals: reg.Counter("popserve_revived_total", "Hibernated sessions transparently restored on access."),
		reaps:    reg.Counter("popserve_reaped_total", "Terminal sessions removed after SessionTTL."),
		submitSeconds: reg.Histogram("popserve_submit_seconds",
			"Submission admission latency (registration, not the run).", obs.DefBuckets),
		stepSeconds: reg.Histogram("popserve_step_quantum_seconds",
			"Wall time of one step quantum.", obs.DefBuckets),
		snapshotSeconds: reg.Histogram("popserve_snapshot_seconds",
			"Session snapshot serialization time.", obs.DefBuckets),
		phaseSeconds: make(map[string]*obs.Histogram),
	}
	for _, ph := range (popstab.RoundStats{}).Phases() {
		p.phaseSeconds[ph.Name] = reg.Histogram("popserve_round_phase_seconds",
			"Per-round engine phase cost, averaged over each step quantum.",
			phaseBuckets, "phase", ph.Name)
	}
	return p
}

// registerGauges exposes the manager's live state as gauge functions —
// evaluated at scrape time, so they need no write path at all.
func (m *Manager) registerGauges() {
	reg := m.registry
	reg.GaugeFunc("popserve_sessions", "Resident sessions in the registry.", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return float64(len(m.jobs))
	})
	reg.GaugeFunc("popserve_hibernated_sessions", "Sessions currently spilled to the store.", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return float64(len(m.hibernated))
	})
	reg.GaugeFunc("popserve_active_runners", "Jobs holding or awaiting a pool slot.", func() float64 {
		return float64(m.active.Load())
	})
	reg.GaugeFunc("popserve_slots_in_use", "Step-pool slots currently held.", func() float64 {
		return float64(len(m.slots))
	})
	reg.GaugeFunc("popserve_slots", "Step-pool capacity (Config.MaxConcurrent).", func() float64 {
		return float64(m.cfg.MaxConcurrent)
	})
}

// Registry exposes the manager's metrics registry (for the transport's
// Prometheus endpoint and for embedding processes that add their own
// metrics).
func (m *Manager) Registry() *obs.Registry { return m.registry }

// Tracer exposes the manager's span store (nil-safe to use directly).
func (m *Manager) Tracer() *obs.Tracer { return m.tracer }

// observePhases folds one quantum's RoundStats delta into the per-phase
// histograms as per-round averages. Called by the runner outside j.mu.
func (p *obsPlane) observePhases(delta popstab.RoundStats) {
	if delta.Rounds == 0 {
		return
	}
	rounds := float64(delta.Rounds)
	for _, ph := range delta.Phases() {
		if ph.NS == 0 {
			continue
		}
		p.phaseSeconds[ph.Name].Observe(float64(ph.NS) / rounds / 1e9)
	}
}

// observeSnapshot times fn (a session snapshot capture) into the snapshot
// histogram.
func (p *obsPlane) observeSnapshot(fn func() []byte) []byte {
	t := time.Now()
	blob := fn()
	p.snapshotSeconds.Observe(time.Since(t).Seconds())
	return blob
}
