// Package popstab is a simulation library for the population stability
// problem of Goldwasser, Ostrovsky, Scafuro and Sealfon (PODC 2018): a
// system of Θ(log log N)-bit agents that replicate and self-destruct must
// keep its population within [(1−α)N, (1+α)N] while a full-information
// adversary inserts and deletes agents at a bounded rate.
//
// The package exposes:
//
//   - the paper's protocol (leader selection → recruitment trees →
//     variance-encoded evaluation) and its failing baselines (§1.3.1);
//   - the synchronous γ-matching communication model;
//   - a registry of adversary strategies, budgeted per the model — on
//     spatial topologies the adversary observes positions and controls
//     placement (the patch family of SpatialAdversaryNames, and clustered
//     rogue infiltration through RogueSpec.Cluster);
//   - the §1.2 extensions (malicious programs, geometric communication,
//     clock drift), composable with each other and with any adversary
//     through Spec.Topology and Spec.Rogue;
//   - one deterministic parallel round engine behind pluggable
//     communication (Matcher) and program (Program) seams: per-agent
//     counter-based randomness makes simulation output bit-identical
//     across any Spec.Workers count, so multi-core runs are pure
//     speedup — for every topology and program;
//   - steppable Sessions with deterministic snapshot/resume (Session,
//     Snapshot, RestoreSessionFromSpec).
//
// A run is configured by one value: the declarative, canonically hashable
// Spec. New, NewSessionFromSpec and RestoreSessionFromSpec build from it, and
// the serving layer (internal/serve, cmd/popserve) accepts it over the
// network: a snapshot restored in another process continues bit-identically.
// The reproduction suite (E1–E17, A1–A9, internal/experiment and
// cmd/popbench) sits above this package and builds its arms from Specs too.
//
// Quick start:
//
//	s, err := popstab.New(popstab.Spec{N: 4096, Seed: 1})
//	if err != nil { ... }
//	for i := 0; i < 10; i++ {
//		rep := s.RunEpoch()
//		fmt.Println(rep.Epoch, rep.EndSize)
//	}
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for measured-vs-paper
// results.
package popstab

import (
	"popstab/internal/match"
	"popstab/internal/params"
	"popstab/internal/population"
	"popstab/internal/protocol"
	"popstab/internal/rogue"
	"popstab/internal/sim"
)

// Re-exported model types. These aliases make the internal packages' types
// part of the stable public surface without duplicating them.
type (
	// Params is the derived protocol parameterization (N, epoch shape,
	// coin biases, γ, α).
	Params = params.Params
	// RoundReport summarizes one completed round.
	RoundReport = sim.RoundReport
	// EpochReport aggregates one protocol epoch.
	EpochReport = sim.EpochReport
	// Census is an aggregate snapshot of the population.
	Census = population.Census
	// Counters accumulates protocol event counts (leaders, recruits,
	// splits, deaths).
	Counters = protocol.Counters
	// RogueStats accumulates the malicious-program extension's event counts
	// (kills, rogue splits, failed detections).
	RogueStats = rogue.Stats
	// MatchPipelineStats are the spatial matching pipeline's cumulative
	// per-phase counters (see Sim.MatchStats).
	MatchPipelineStats = match.PipelineStats
	// RoundStats are the engine's cumulative per-phase cost counters —
	// every round phase, not just the matching pipeline (see
	// Sim.RoundStats and DESIGN.md §13).
	RoundStats = sim.RoundStats
	// PhaseCost is one named phase's cumulative wall-clock cost within a
	// RoundStats.
	PhaseCost = sim.PhaseCost
)

// Sim is one deterministic simulation run.
type Sim struct {
	eng      *sim.Engine
	proto    *protocol.Protocol // nil for baselines
	overlay  *rogue.Overlay     // nil without the malicious-program extension
	params   Params
	epochLen int
}

// New resolves sp (see Spec.Normalize) and builds the simulation it
// describes.
func New(sp Spec) (*Sim, error) {
	pl, err := sp.resolve()
	if err != nil {
		return nil, err
	}
	return pl.build()
}

// Params reports the derived parameterization.
func (s *Sim) Params() Params { return s.params }

// Size reports the current population size.
func (s *Sim) Size() int { return s.eng.Size() }

// GlobalRound reports the number of completed rounds.
func (s *Sim) GlobalRound() uint64 { return s.eng.GlobalRound() }

// EpochLen reports the running protocol's epoch length in rounds, cached at
// construction.
func (s *Sim) EpochLen() int { return s.epochLen }

// RunRound executes one round.
func (s *Sim) RunRound() RoundReport { return s.eng.RunRound() }

// RunRounds executes n rounds, returning the final report.
func (s *Sim) RunRounds(n int) RoundReport { return s.eng.RunRounds(n) }

// RunEpoch executes rounds up to the next epoch boundary.
func (s *Sim) RunEpoch() EpochReport { return s.eng.RunEpoch() }

// RunEpochs executes n epochs and returns their reports.
func (s *Sim) RunEpochs(n int) []EpochReport { return s.eng.RunEpochs(n) }

// Census snapshots the population's aggregate state.
func (s *Sim) Census() Census { return s.eng.Census() }

// Close releases the engine's parked worker-pool goroutines. The simulation
// stays usable afterwards (sharded phases run inline); idempotent. Callers
// that hold many simulations concurrently — the job server hibernating or
// garbage-collecting sessions — close eagerly so goroutine count tracks
// live work; everyone else may simply drop the Sim (a runtime cleanup
// covers it).
func (s *Sim) Close() { s.eng.Close() }

// MatchStats reports the spatial matcher's cumulative per-phase pipeline
// counters (sample count, bucket/scatter/candidate/walk times and the exact
// work counters; the walk is serial, so SerialWalks equals Samples). ok is
// false for communication models without a phase pipeline (the well-mixed
// scheduler). Observability only — perfbench's per-layer breakdown reads it;
// nothing feeds back into the simulation.
func (s *Sim) MatchStats() (stats MatchPipelineStats, ok bool) {
	if r, isSpatial := s.eng.Matcher().(match.PhaseReporter); isSpatial {
		return r.PipelineStats(), true
	}
	return MatchPipelineStats{}, false
}

// ColorAgreement draws one matching over the current population from the
// spatial matcher's probe stream and counts the matched pairs of active
// agents whose colors agree and disagree: how far locality correlates the
// evaluation-phase color signal (EXPERIMENTS.md A5). ok is false on the
// well-mixed topology. The probe stream is split from the streams rounds
// draw from, so probing never changes the trajectory; its position is
// snapshot state.
func (s *Sim) ColorAgreement() (same, diff int, ok bool) {
	sp, ok := s.eng.Matcher().(interface {
		SampleProbe(*population.Population, *match.Pairing)
	})
	if !ok {
		return 0, 0, false
	}
	pop := s.eng.Population()
	var probe match.Pairing
	sp.SampleProbe(pop, &probe)
	for i := 0; i < pop.Len(); i++ {
		j := probe.Nbr[i]
		if j == match.Unmatched || int(j) < i {
			continue
		}
		a, b := pop.State(i), pop.State(int(j))
		if !a.Active || !b.Active {
			continue
		}
		if a.Color == b.Color {
			same++
		} else {
			diff++
		}
	}
	return same, diff, true
}

// RoundStats reports the engine's cumulative per-phase cost counters
// (adversary, compose, match, step, kill-fold, apply, snapshot — plus
// per-round allocation and population deltas). Observability only, for
// every matcher and program: the counters never feed back into the
// simulation and are excluded from snapshots. popsim's -stats flag and the
// serve layer's phase histograms read them.
func (s *Sim) RoundStats() RoundStats { return s.eng.RoundStats() }

// Counters exposes the paper protocol's event counters (nil for baselines).
func (s *Sim) Counters() *Counters {
	if s.proto == nil {
		return nil
	}
	return s.proto.Counters()
}

// Displace forcibly resizes the population to n agents (experimental
// machinery for drift/recovery studies; not part of the model).
func (s *Sim) Displace(n int) { s.eng.ForceResize(n) }

// RogueCounts reports the honest and rogue populations (0, Size() without
// the extension).
func (s *Sim) RogueCounts() (honest, rogues int) {
	if s.overlay == nil {
		return s.Size(), 0
	}
	return s.overlay.Counts()
}

// RogueStats returns the malicious-program extension's counters (zero
// without the extension).
func (s *Sim) RogueStats() RogueStats {
	if s.overlay == nil {
		return RogueStats{}
	}
	return s.overlay.Stats()
}

// InInterval reports whether the population currently lies within the
// admissible interval [(1−α)N, (1+α)N] (see Params.Bounds for the
// rounding).
func (s *Sim) InInterval() bool {
	lo, hi := s.params.Bounds()
	return s.Size() >= lo && s.Size() <= hi
}
