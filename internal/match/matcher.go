package match

import (
	"popstab/internal/pool"
	"popstab/internal/population"
	"popstab/internal/prng"
	"popstab/internal/wire"
)

// Matcher is the population-state-aware generalization of Scheduler: it
// samples one round's communication pairing and may inspect the population
// (typically a side-array it registered at Bind time, such as spatial
// positions) rather than just its size. The unified round engine
// (internal/sim) speaks Matcher; plain Schedulers are adapted with
// FromScheduler.
type Matcher interface {
	// SampleMatch fills p with the round's pairing over the population.
	// It runs in the engine's serial matching phase.
	SampleMatch(pop *population.Population, src *prng.Source, p *Pairing)
	// MinFraction reports the guaranteed lower bound γ on the fraction of
	// agents matched each round (0 for matchers with no guarantee).
	MinFraction() float64
	// Name identifies the matcher in experiment output.
	Name() string
}

// Binder is implemented by Matchers that carry per-population state. The
// engine calls Bind exactly once at construction, after the population
// exists, handing the matcher a dedicated randomness stream (split from the
// engine root after the protocol, scheduler, and adversary streams, so
// binding never perturbs those). Bind typically attaches side-arrays via
// population.Attach.
type Binder interface {
	Bind(pop *population.Population, src *prng.Source)
}

// PoolSetter is implemented by Matchers that shard their matching phase on
// the engine's persistent worker pool (the spatial pipeline of spatial.go).
// The engine calls SetPool once at construction; a matcher that never
// receives a pool (standalone use) runs every phase inline. Like the
// engine's own Workers knob it is purely a throughput setting — matcher
// output is bit-identical with and without a pool, at every pool size.
type PoolSetter interface {
	SetPool(p *pool.Pool)
}

// Space is implemented by spatial Matchers and describes their geometry to
// position-aware consumers — the adversary seam above all. The engine
// type-asserts its matcher against Space at construction and, when present,
// threads positions and metric into the adversary's View/Mutator (DESIGN.md
// §7): the paper's adversary observes the full state of the system, and on a
// spatial topology the positions are part of that state, not an
// implementation detail.
type Space interface {
	// Positions exposes the bound position side-array (nil before Bind).
	Positions() *population.Positions
	// Dist2 is the squared distance between two positions under this
	// topology's metric (wrapped, Euclidean, or circular).
	Dist2(a, b population.Point) float64
	// PatchPoint draws a position uniformly at random within distance r of
	// center under this topology's geometry, consuming src. Callers own src:
	// the adversary passes its private stream, so patch sampling never
	// perturbs the matcher's placement stream.
	PatchPoint(center population.Point, r float64, src *prng.Source) population.Point
}

// PipelineStats are cumulative counters of the spatial matching pipeline,
// incremented once per sample (match and probe samples both count). Times
// are summed wall-clock nanoseconds per phase. Observability only —
// deltas between two reads divide into per-round figures (popbench's
// per-phase breakdown); nothing reads them back into the simulation.
type PipelineStats struct {
	// Samples counts pipeline runs.
	Samples uint64
	// BucketNS, ScatterNS, CandNS, and WalkNS are the summed wall-clock
	// costs of phases 1–4 (bucket, counting-sort scatter, candidate
	// selection, greedy walk).
	BucketNS, ScatterNS, CandNS, WalkNS uint64
	// SpecWalks is always 0 and SerialWalks counts one walk per sample: the
	// greedy walk is serial (DESIGN.md §12). Both are kept for readers that
	// still report the old speculative/serial split.
	SpecWalks, SerialWalks uint64
}

// ConflictRate is always 0: no walk speculates, so none needs repair. Kept
// for readers of the old speculative-walk statistics.
func (s PipelineStats) ConflictRate() float64 { return 0 }

// Sub returns the counter deltas since prev (an earlier read from the same
// matcher).
func (s PipelineStats) Sub(prev PipelineStats) PipelineStats {
	return PipelineStats{
		Samples:     s.Samples - prev.Samples,
		BucketNS:    s.BucketNS - prev.BucketNS,
		ScatterNS:   s.ScatterNS - prev.ScatterNS,
		CandNS:      s.CandNS - prev.CandNS,
		WalkNS:      s.WalkNS - prev.WalkNS,
		SpecWalks:   s.SpecWalks - prev.SpecWalks,
		SerialWalks: s.SerialWalks - prev.SerialWalks,
	}
}

// PhaseReporter is implemented by Matchers that expose per-phase pipeline
// statistics (the spatial chassis). Read from serial phases only.
type PhaseReporter interface {
	PipelineStats() PipelineStats
}

// Stateful is implemented by Matchers that carry mutable per-run state —
// the spatial chassis's placement/probe streams, sample counters, and
// position side-array. The engine's snapshot (DESIGN.md §8) captures it so
// a restored run replays placement and rewiring randomness exactly;
// stateless matchers (the scheduler adapters) simply don't implement it.
// Both methods run from serial phases only.
type Stateful interface {
	// EncodeState appends the matcher's mutable state to a snapshot.
	EncodeState(e *wire.Enc)
	// DecodeState reinstates state captured by EncodeState on a matcher
	// built from the same configuration and already bound to its
	// population.
	DecodeState(d *wire.Dec) error
}

// FromScheduler adapts a size-only Scheduler into a Matcher. The adaptation
// is behavior-preserving: SampleMatch(pop, …) is exactly Sample(pop.Len(), …).
func FromScheduler(s Scheduler) Matcher { return schedulerMatcher{s} }

// schedulerMatcher wraps a Scheduler; MinFraction and Name promote.
type schedulerMatcher struct{ Scheduler }

func (m schedulerMatcher) SampleMatch(pop *population.Population, src *prng.Source, p *Pairing) {
	m.Sample(pop.Len(), src, p)
}
