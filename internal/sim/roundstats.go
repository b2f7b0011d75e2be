package sim

import (
	"fmt"
	"runtime/metrics"
	"strings"
	"time"
)

// RoundStats are the engine's cumulative per-phase cost counters — the
// generalization of match.PipelineStats from the spatial matching pipeline
// to every phase of the round (DESIGN.md §13). Observability only: nothing
// feeds back into the simulation, the counters are excluded from snapshots
// (a restored engine starts its accounting at zero), and the collection
// cost per round is ~10 time stamps plus one runtime/metrics read, which
// disappears into benchmark noise even on the smallest gated workload.
//
// All ns counters are wall-clock sums over completed rounds. Compose and
// matching share the pool (pool.Share): MatchNS is SampleMatch on the
// engine goroutine, and ComposeNS runs from the start of the overlap until
// compose's last chunk is done. On a pool of one, compose runs inline before
// the matching, so ComposeNS is compose's own time and the two phases add
// up; with more workers they overlap, and the round's critical path through
// them is max(compose, match), not their sum.
type RoundStats struct {
	// Rounds counts completed rounds (the divisor for per-round averages).
	Rounds uint64 `json:"rounds"`
	// AdversaryNS is the adversary turn: staging plus apply. The turn is
	// serial and on the round's critical path.
	AdversaryNS uint64 `json:"adversary_ns"`
	// ComposeNS is the message-compose phase, until its last chunk is done.
	ComposeNS uint64 `json:"compose_ns"`
	// MatchNS is the matcher's SampleMatch on the engine goroutine.
	MatchNS uint64 `json:"match_ns"`
	// StepNS is the deliver-and-step phase.
	StepNS uint64 `json:"step_ns"`
	// KillFoldNS is always 0: a removed agent writes its own death in the
	// step, so there is no kill fold to time. The field stays only because
	// perfbench reads it.
	KillFoldNS uint64 `json:"kill_fold_ns"`
	// ApplyNS is the population's sharded apply/compaction pass.
	ApplyNS uint64 `json:"apply_ns"`
	// SnapshotNS and Snapshots cover engine state serialization — not part
	// of the round, but on the serve layer's checkpoint path.
	SnapshotNS uint64 `json:"snapshot_ns"`
	Snapshots  uint64 `json:"snapshots"`
	// AllocBytes and AllocObjects are heap-allocation deltas over the
	// measured rounds (runtime/metrics, read once per round). The counters
	// are process-wide: with a single running engine they are the round
	// loop's own allocation rate; with concurrent sessions they include
	// neighbors' traffic.
	AllocBytes   uint64 `json:"alloc_bytes"`
	AllocObjects uint64 `json:"alloc_objects"`
	// Births, Deaths, and NetGrowth are cumulative population deltas
	// (NetGrowth may be negative under a winning adversary).
	Births    uint64 `json:"births"`
	Deaths    uint64 `json:"deaths"`
	NetGrowth int64  `json:"net_growth"`
}

// Sub returns the delta s−prev, for windowed rates over a cumulative
// counter pair.
func (s RoundStats) Sub(prev RoundStats) RoundStats {
	return RoundStats{
		Rounds:       s.Rounds - prev.Rounds,
		AdversaryNS:  s.AdversaryNS - prev.AdversaryNS,
		ComposeNS:    s.ComposeNS - prev.ComposeNS,
		MatchNS:      s.MatchNS - prev.MatchNS,
		StepNS:       s.StepNS - prev.StepNS,
		KillFoldNS:   s.KillFoldNS - prev.KillFoldNS,
		ApplyNS:      s.ApplyNS - prev.ApplyNS,
		SnapshotNS:   s.SnapshotNS - prev.SnapshotNS,
		Snapshots:    s.Snapshots - prev.Snapshots,
		AllocBytes:   s.AllocBytes - prev.AllocBytes,
		AllocObjects: s.AllocObjects - prev.AllocObjects,
		Births:       s.Births - prev.Births,
		Deaths:       s.Deaths - prev.Deaths,
		NetGrowth:    s.NetGrowth - prev.NetGrowth,
	}
}

// Add returns the field-wise sum s+o, for aggregating stats across engines
// (popattack sums its whole strategy grid into one breakdown).
func (s RoundStats) Add(o RoundStats) RoundStats {
	return RoundStats{
		Rounds:       s.Rounds + o.Rounds,
		AdversaryNS:  s.AdversaryNS + o.AdversaryNS,
		ComposeNS:    s.ComposeNS + o.ComposeNS,
		MatchNS:      s.MatchNS + o.MatchNS,
		StepNS:       s.StepNS + o.StepNS,
		KillFoldNS:   s.KillFoldNS + o.KillFoldNS,
		ApplyNS:      s.ApplyNS + o.ApplyNS,
		SnapshotNS:   s.SnapshotNS + o.SnapshotNS,
		Snapshots:    s.Snapshots + o.Snapshots,
		AllocBytes:   s.AllocBytes + o.AllocBytes,
		AllocObjects: s.AllocObjects + o.AllocObjects,
		Births:       s.Births + o.Births,
		Deaths:       s.Deaths + o.Deaths,
		NetGrowth:    s.NetGrowth + o.NetGrowth,
	}
}

// PhaseCost is one named phase's cumulative wall-clock cost.
type PhaseCost struct {
	Name string `json:"name"`
	NS   uint64 `json:"ns"`
}

// Phases lists the per-phase ns counters in round order, under the stable
// names the metrics plane and the -stats printers share.
func (s RoundStats) Phases() []PhaseCost {
	return []PhaseCost{
		{"adversary", s.AdversaryNS},
		{"compose", s.ComposeNS},
		{"match", s.MatchNS},
		{"step", s.StepNS},
		{"kill_fold", s.KillFoldNS},
		{"apply", s.ApplyNS},
		{"snapshot", s.SnapshotNS},
	}
}

// Breakdown renders the human-readable per-phase cost table behind the
// -stats flag of popsim/popattack and popbench's verbose mode. Percentages
// are of the summed phase time, not wall clock: compose overlaps matching,
// so the phases can legitimately sum past the loop's elapsed time.
func (s RoundStats) Breakdown() string {
	if s.Rounds == 0 {
		return "round-phase breakdown: no rounds recorded"
	}
	var b strings.Builder
	var total uint64
	for _, ph := range s.Phases() {
		total += ph.NS
	}
	fmt.Fprintf(&b, "round-phase breakdown over %d rounds (%v/round summed across phases)\n",
		s.Rounds, time.Duration(total/s.Rounds))
	for _, ph := range s.Phases() {
		if ph.Name == "snapshot" {
			continue // not a round phase; reported with its own count below
		}
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(ph.NS) / float64(total)
		}
		fmt.Fprintf(&b, "  %-9s %12v/round  %5.1f%%\n", ph.Name, time.Duration(ph.NS/s.Rounds), pct)
	}
	if s.Snapshots > 0 {
		fmt.Fprintf(&b, "  snapshots %d (%v total)\n", s.Snapshots, time.Duration(s.SnapshotNS))
	}
	fmt.Fprintf(&b, "  allocs %d B/round (%.1f objects/round); births %d, deaths %d, net %+d",
		s.AllocBytes/s.Rounds, float64(s.AllocObjects)/float64(s.Rounds),
		s.Births, s.Deaths, s.NetGrowth)
	return b.String()
}

// RoundStats reports the engine's cumulative phase counters.
func (e *Engine) RoundStats() RoundStats { return e.stats }

// allocSampleNames are the runtime/metrics counters behind the per-round
// allocation deltas. Reading two plain uint64 metrics is far cheaper than
// runtime.ReadMemStats (no stop-the-world, no full stats fold).
var allocSampleNames = [2]string{"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects"}

// initAllocSamples prepares the engine's reusable sample buffer and takes
// the starting baseline.
func (e *Engine) initAllocSamples() {
	for i, name := range allocSampleNames {
		e.allocSamples[i].Name = name
	}
	metrics.Read(e.allocSamples[:])
	e.allocBase[0] = e.allocSamples[0].Value.Uint64()
	e.allocBase[1] = e.allocSamples[1].Value.Uint64()
}

// accumAllocs folds the heap-allocation delta since the last baseline into
// the stats and advances the baseline. RunRound resyncs without
// accumulating at the top of the round and accumulates at the bottom, so
// between-round work (snapshot encoding, API handling) never masquerades
// as round-loop garbage.
func (e *Engine) accumAllocs(accumulate bool) {
	metrics.Read(e.allocSamples[:])
	b := e.allocSamples[0].Value.Uint64()
	o := e.allocSamples[1].Value.Uint64()
	if accumulate {
		e.stats.AllocBytes += b - e.allocBase[0]
		e.stats.AllocObjects += o - e.allocBase[1]
	}
	e.allocBase[0] = b
	e.allocBase[1] = o
}

// sinceNS is time.Since squeezed into the stats counters' unit.
func sinceNS(t time.Time) uint64 { return uint64(time.Since(t).Nanoseconds()) }
