package popstab

import (
	"fmt"

	"popstab/internal/wire"
)

// SessionStats is the cumulative, JSON-serializable summary of a running
// Session — what the serving layer streams per step and reports on query.
// All counters accumulate from the session's start (or, after a restore,
// from the ORIGINAL session's start: the totals ride the snapshot).
type SessionStats struct {
	// Round is the number of completed rounds.
	Round uint64 `json:"round"`
	// Epoch is the current epoch index.
	Epoch int `json:"epoch"`
	// Size is the current population size.
	Size int `json:"size"`
	// InInterval reports whether Size lies in [(1−α)N, (1+α)N].
	InInterval bool `json:"in_interval"`
	// Births, Deaths, and Kills are cumulative protocol event counts
	// (Kills counts neighbor-removals, also included in Deaths).
	Births uint64 `json:"births"`
	Deaths uint64 `json:"deaths"`
	Kills  uint64 `json:"kills,omitempty"`
	// AdvInserted and AdvDeleted are the adversary's cumulative
	// alterations.
	AdvInserted uint64 `json:"adv_inserted,omitempty"`
	AdvDeleted  uint64 `json:"adv_deleted,omitempty"`
	// Honest and Rogues split Size by program under the malicious-program
	// extension (Honest = Size without it).
	Honest int `json:"honest"`
	Rogues int `json:"rogues,omitempty"`
}

// Session is a steppable simulation: the round loop inverted into an object
// the caller drives. Where Sim.RunEpochs owns the loop until it returns, a
// Session advances in caller-chosen increments and can be paused,
// serialized (Snapshot), shipped across processes, and resumed
// (RestoreSessionFromSpec) with a bit-identical continuation — the seam the serving
// layer (internal/serve, cmd/popserve) multiplexes many simulations
// through. Not safe for concurrent use; callers serialize access.
type Session struct {
	sim *Sim
	cum SessionStats
}

// NewSessionFromSpec builds a session over a fresh simulation of sp.
func NewSessionFromSpec(sp Spec) (*Session, error) {
	sim, err := New(sp)
	if err != nil {
		return nil, err
	}
	s := &Session{sim: sim}
	s.refresh()
	return s, nil
}

// Sim exposes the underlying simulation (owned by the session).
func (s *Session) Sim() *Sim { return s.sim }

// refresh recomputes the derived (non-accumulated) stats fields.
func (s *Session) refresh() {
	s.cum.Round = s.sim.GlobalRound()
	s.cum.Epoch = int(s.cum.Round / uint64(s.sim.EpochLen()))
	s.cum.Size = s.sim.Size()
	s.cum.InInterval = s.sim.InInterval()
	s.cum.Honest, s.cum.Rogues = s.sim.RogueCounts()
}

// Step advances the session by n rounds (no-op for n <= 0) and returns the
// updated cumulative stats.
func (s *Session) Step(n int) SessionStats {
	for i := 0; i < n; i++ {
		rep := s.sim.RunRound()
		s.cum.Births += uint64(rep.Births)
		s.cum.Deaths += uint64(rep.Deaths)
		s.cum.Kills += uint64(rep.Kills)
		s.cum.AdvInserted += uint64(rep.AdvInserted)
		s.cum.AdvDeleted += uint64(rep.AdvDeleted)
	}
	s.refresh()
	return s.cum
}

// StepEpoch advances to the next epoch boundary (a full epoch when already
// at one) and returns the updated cumulative stats.
func (s *Session) StepEpoch() SessionStats {
	t := uint64(s.sim.EpochLen())
	n := int(t - s.sim.GlobalRound()%t)
	return s.Step(n)
}

// Stats returns the cumulative stats without advancing.
func (s *Session) Stats() SessionStats { return s.cum }

// RoundStats reports the engine's cumulative per-phase cost counters (see
// Sim.RoundStats). Deliberately NOT part of SessionStats or the session
// snapshot: timings are host-local observability, while stats and snapshots
// are deterministic simulation content compared bit-for-bit across hosts by
// the federation failover tests.
func (s *Session) RoundStats() RoundStats { return s.sim.RoundStats() }

// Close releases the session's worker-pool goroutines (see Sim.Close). The
// session stays usable; idempotent. The job server closes sessions it
// hibernates or garbage-collects so parked pool goroutines don't outlive
// the session's residency.
func (s *Session) Close() { s.sim.Close() }

// sessionTag frames the session layer's snapshot section; the engine
// document is nested inside it as a byte string.
const sessionTag uint32 = 100

// Snapshot serializes the session — the cumulative counters plus the full
// engine state (see internal/sim's snapshot documentation for exactly what
// that captures). The bytes restore with RestoreSessionFromSpec into a
// session of an equal spec, continuing bit-identically at any worker
// count.
func (s *Session) Snapshot() []byte {
	enc := wire.NewEnc()
	enc.Begin(sessionTag)
	enc.U64(s.cum.Births)
	enc.U64(s.cum.Deaths)
	enc.U64(s.cum.Kills)
	enc.U64(s.cum.AdvInserted)
	enc.U64(s.cum.AdvDeleted)
	enc.Bytes(s.sim.Snapshot())
	enc.End()
	return enc.Finish()
}

// RestoreSessionFromSpec rebuilds a session from sp and reinstates a
// snapshot taken by Session.Snapshot on a session of an equal spec (Workers
// may differ: it is a throughput knob, invisible to the trajectory).
func RestoreSessionFromSpec(sp Spec, data []byte) (*Session, error) {
	s, err := NewSessionFromSpec(sp)
	if err != nil {
		return nil, err
	}
	d, err := wire.NewDec(data)
	if err != nil {
		return nil, fmt.Errorf("popstab: %w", err)
	}
	d.Begin(sessionTag)
	s.cum.Births = d.U64()
	s.cum.Deaths = d.U64()
	s.cum.Kills = d.U64()
	s.cum.AdvInserted = d.U64()
	s.cum.AdvDeleted = d.U64()
	engineBlob := d.Bytes()
	d.End()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("popstab: %w", err)
	}
	if err := s.sim.Restore(engineBlob); err != nil {
		return nil, err
	}
	s.refresh()
	return s, nil
}

// Snapshot serializes the simulation's full mutable state; see
// Session.Snapshot for the session-level form the serving layer uses.
func (s *Sim) Snapshot() []byte { return s.eng.Snapshot() }

// Restore reinstates a snapshot taken by Sim.Snapshot on a simulation of an
// equal spec. On error the Sim must be discarded.
func (s *Sim) Restore(data []byte) error { return s.eng.Restore(data) }
