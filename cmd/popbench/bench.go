package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"popstab"
	"popstab/internal/agent"
	"popstab/internal/match"
	"popstab/internal/params"
	"popstab/internal/pool"
	"popstab/internal/population"
	"popstab/internal/prng"
	"popstab/internal/sim"
	"popstab/internal/wire"
)

// jsonBenchmark is one throughput workload's outcome in the -json document.
// Fields are stable: add, don't rename.
type jsonBenchmark struct {
	Name    string `json:"name"`
	N       int    `json:"n"`
	Workers int    `json:"workers"`
	// Rounds is the number of iterations (full rounds, or matching phases
	// for the match-only workloads) executed.
	Rounds    int   `json:"rounds"`
	ElapsedMS int64 `json:"elapsed_ms"`
	// AgentStepsPerSec is the throughput metric the -diff perf gate
	// compares: processed agents (stepped, or matched-over for match-only
	// workloads) per wall-clock second.
	AgentStepsPerSec float64 `json:"agentsteps_per_s"`
	// BytesPerRound and AllocsPerRound are heap-allocation averages per
	// iteration (runtime.MemStats deltas over the timed loop, excluding
	// construction). The -diff gate warns when they regress: the steady
	// state is supposed to reuse buffers, so new per-round garbage is a
	// leak of the scratch-reuse discipline even when wall time looks fine.
	BytesPerRound  float64 `json:"bytes_per_round"`
	AllocsPerRound float64 `json:"allocs_per_round"`
	// The per-phase breakdown of the spatial matching pipeline, averaged
	// over the timed iterations (omitted for workloads without a spatial
	// matcher).
	BucketNSPerRound  float64 `json:"bucket_ns_per_round,omitempty"`
	ScatterNSPerRound float64 `json:"scatter_ns_per_round,omitempty"`
	CandNSPerRound    float64 `json:"cand_ns_per_round,omitempty"`
	WalkNSPerRound    float64 `json:"walk_ns_per_round,omitempty"`

	// engineStats carries the engine's cumulative round-phase counters for
	// the verbose console breakdown. Unexported on purpose: it stays out of
	// the JSON document, whose schema the perf-tracking gate parses.
	engineStats *popstab.RoundStats
}

// benchBudget is the minimum wall-clock spent per workload; every workload
// runs at least one iteration, then iterates until the budget is consumed
// so agentsteps/s is averaged over enough work to be stable.
const benchBudget = 1500 * time.Millisecond

// runThroughputBenchmarks times the fixed simulator workloads whose
// agentsteps/s the -diff perf gate tracks: well-mixed and torus full rounds
// at N = 2¹⁶ and 2²⁰, the sharded torus matching phase alone at N = 2²⁰
// (the parallel spatial pipeline), and an apply-heavy churn round where
// about half the population turns over every round (the sharded
// apply/compaction path). All workloads are seeded and deterministic in
// content; only wall time varies across machines, which is why -diff only
// warns (never fails) on throughput changes.
func runThroughputBenchmarks(verbose bool) []jsonBenchmark {
	var out []jsonBenchmark
	add := func(b jsonBenchmark, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "popbench: benchmark %s skipped: %v\n", b.Name, err)
			return
		}
		out = append(out, b)
		if verbose {
			fmt.Printf("bench %-24s n=%-8d workers=%-2d rounds=%-4d %8dms  %14.0f agentsteps/s  %10.0f B/round %8.1f allocs/round\n",
				b.Name, b.N, b.Workers, b.Rounds, b.ElapsedMS, b.AgentStepsPerSec,
				b.BytesPerRound, b.AllocsPerRound)
			if b.WalkNSPerRound > 0 {
				fmt.Printf("      %-24s phases/round: bucket %s scatter %s cand %s walk %s\n",
					"", fmtNS(b.BucketNSPerRound), fmtNS(b.ScatterNSPerRound),
					fmtNS(b.CandNSPerRound), fmtNS(b.WalkNSPerRound))
			}
			if b.engineStats != nil {
				fmt.Printf("      %s\n", strings.ReplaceAll(b.engineStats.Breakdown(), "\n", "\n      "))
			}
		}
	}
	add(benchRounds("RoundN65536", 65536, popstab.Mixed))
	add(benchRounds("RoundN1048576", 1<<20, popstab.Mixed))
	add(benchRounds("TorusRoundN65536", 65536, popstab.Torus))
	add(benchRounds("TorusRoundN1048576", 1<<20, popstab.Torus))
	add(benchTorusMatch("TorusMatchN1048576", 1<<20))
	add(benchChurn("ChurnN1048576", 1<<20))
	return out
}

// measure drives iter — one iteration returning the number of agents it
// processed — until benchBudget is consumed, and fills b's timing and
// allocation fields. Two untimed warmup iterations run first so the
// initial growth of reusable buffers (double buffers, pairing scratch,
// spatial CSR arrays) lands outside the measured window: the gate tracks
// the steady state, and short workloads (a few iterations per budget)
// would otherwise flap on how much warmup they happened to absorb.
//
// phases, when non-nil, reads the spatial matcher's cumulative pipeline
// counters (ok = false when the workload has no spatial matcher); the
// delta over the timed window fills the per-phase breakdown fields.
func measure(b jsonBenchmark, iter func() int, phases func() (match.PipelineStats, bool)) jsonBenchmark {
	for i := 0; i < 2; i++ {
		iter()
	}
	var p0 match.PipelineStats
	if phases != nil {
		p0, _ = phases()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	steps := 0
	start := time.Now()
	for rounds := 0; ; rounds++ {
		if elapsed := time.Since(start); rounds > 0 && elapsed >= benchBudget {
			runtime.ReadMemStats(&m1)
			b.Rounds = rounds
			b.ElapsedMS = elapsed.Milliseconds()
			b.AgentStepsPerSec = float64(steps) / elapsed.Seconds()
			b.BytesPerRound = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(rounds)
			b.AllocsPerRound = float64(m1.Mallocs-m0.Mallocs) / float64(rounds)
			if phases != nil {
				if p1, ok := phases(); ok {
					d := p1.Sub(p0)
					b.BucketNSPerRound = float64(d.BucketNS) / float64(rounds)
					b.ScatterNSPerRound = float64(d.ScatterNS) / float64(rounds)
					b.CandNSPerRound = float64(d.CandNS) / float64(rounds)
					b.WalkNSPerRound = float64(d.WalkNS) / float64(rounds)
				}
			}
			return b
		}
		steps += iter()
	}
}

// benchRounds times full engine rounds at the engine's default worker
// count.
func benchRounds(name string, n int, topo popstab.Topology) (jsonBenchmark, error) {
	b := jsonBenchmark{Name: name, N: n, Workers: runtime.NumCPU()}
	s, err := popstab.New(popstab.Config{N: n, Tinner: 2 * log2of(n), Seed: 1, Topology: topo})
	if err != nil {
		return b, err
	}
	defer s.Close()
	b = measure(b, func() int {
		s.RunRound()
		return s.Size()
	}, s.MatchStats)
	rs := s.RoundStats()
	b.engineStats = &rs
	return b, nil
}

// benchTorusMatch times the sharded spatial matching phase alone — the
// spatial hot path — over a static population of n uniformly placed
// agents, with a live worker pool exactly as the engine provides one.
func benchTorusMatch(name string, n int) (jsonBenchmark, error) {
	b := jsonBenchmark{Name: name, N: n, Workers: runtime.NumCPU()}
	tor, err := match.NewTorus(1 / math.Sqrt(float64(n)))
	if err != nil {
		return b, err
	}
	pop := population.New(n)
	tor.Bind(pop, prng.New(1))
	pl := pool.New(runtime.NumCPU())
	defer pl.Close()
	tor.SetPool(pl)
	src := prng.New(2)
	var p match.Pairing
	p.SetPool(pl)
	return measure(b, func() int {
		tor.SampleMatch(pop, src, &p)
		return n
	}, func() (match.PipelineStats, bool) { return tor.PipelineStats(), true }), nil
}

// churnStepper is a synthetic apply-heavy program: each agent dies with
// probability 1/4 and splits with probability 1/4 every round, so about
// half the population turns over per round — the worst case for the
// apply/compaction path the prefix-sum plan shards. Messages are ignored;
// the process is critical (E[offspring] = 1), so the size random-walks
// around its start without drifting over a benchmark's horizon.
type churnStepper struct{}

func (churnStepper) EpochLen() int              { return 1 }
func (churnStepper) Compose(*agent.State) uint8 { return 0 }
func (churnStepper) Decode(uint8) wire.Message  { return wire.Message{} }
func (churnStepper) Step(_ *agent.State, _ wire.Message, _ bool, src *prng.Source) population.Action {
	switch src.Uint64() % 4 {
	case 0:
		return population.ActDie
	case 1:
		return population.ActSplit
	default:
		return population.ActKeep
	}
}

// benchChurn times full rounds of the churn program — compose and matching
// are trivial, so the round is dominated by the sharded apply/compaction
// of ~n/2 deaths and ~n/2 births.
func benchChurn(name string, n int) (jsonBenchmark, error) {
	b := jsonBenchmark{Name: name, N: n, Workers: runtime.NumCPU()}
	p, err := params.Derive(n, params.WithTinner(2*log2of(n)))
	if err != nil {
		return b, err
	}
	eng, err := sim.New(sim.Config{Params: p, Protocol: churnStepper{}, Seed: 1})
	if err != nil {
		return b, err
	}
	defer eng.Close()
	return measure(b, func() int {
		eng.RunRound()
		return eng.Size()
	}, nil), nil
}

// fmtNS renders a per-round phase cost with a human unit (µs or ms).
func fmtNS(ns float64) string {
	switch {
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	default:
		return fmt.Sprintf("%.0fµs", ns/1e3)
	}
}

// log2of is log₂ n for a power of two.
func log2of(n int) int {
	lg := 0
	for v := n; v > 1; v >>= 1 {
		lg++
	}
	return lg
}
