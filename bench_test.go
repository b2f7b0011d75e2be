// Benchmarks regenerating every experiment row of the reproduction suite
// (one Benchmark per table in DESIGN.md §4 / EXPERIMENTS.md) plus simulator
// throughput benchmarks.
//
// Experiment benches run at Quick scale; each iteration executes the whole
// experiment and reports reproduced=1 on success. Regenerate the full-scale
// tables with: go run ./cmd/popbench -scale full
package popstab_test

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"popstab"
	"popstab/internal/agent"
	"popstab/internal/experiment"
	"popstab/internal/match"
	"popstab/internal/params"
	"popstab/internal/pool"
	"popstab/internal/population"
	"popstab/internal/prng"
	"popstab/internal/sim"
	"popstab/internal/wire"
)

// benchExperiment runs one suite experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiment.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	for i := 0; i < b.N; i++ {
		res, err := e.Execute(experiment.Config{
			Scale:   experiment.Quick,
			Seed:    uint64(7 + i),
			Workers: runtime.NumCPU(),
		})
		if err != nil {
			b.Fatal(err)
		}
		reproduced := 0.0
		if strings.HasPrefix(res.Verdict, "REPRODUCED") {
			reproduced = 1
		}
		b.ReportMetric(reproduced, "reproduced")
	}
}

// One benchmark per experiment row (E-series: paper claims).

func BenchmarkE1MainTheorem(b *testing.B)     { benchExperiment(b, "E1") }
func BenchmarkE2WrongRound(b *testing.B)      { benchExperiment(b, "E2") }
func BenchmarkE3ActiveFraction(b *testing.B)  { benchExperiment(b, "E3") }
func BenchmarkE4Recruitment(b *testing.B)     { benchExperiment(b, "E4") }
func BenchmarkE5ColorBalance(b *testing.B)    { benchExperiment(b, "E5") }
func BenchmarkE6EpochDeviation(b *testing.B)  { benchExperiment(b, "E6") }
func BenchmarkE7RestoringDrift(b *testing.B)  { benchExperiment(b, "E7") }
func BenchmarkE8Recovery(b *testing.B)        { benchExperiment(b, "E8") }
func BenchmarkE9Attempt1Fails(b *testing.B)   { benchExperiment(b, "E9") }
func BenchmarkE10Attempt2Walk(b *testing.B)   { benchExperiment(b, "E10") }
func BenchmarkE11StrategySweep(b *testing.B)  { benchExperiment(b, "E11") }
func BenchmarkE12KScaling(b *testing.B)       { benchExperiment(b, "E12") }
func BenchmarkE13Resources(b *testing.B)      { benchExperiment(b, "E13") }
func BenchmarkE14GammaSweep(b *testing.B)     { benchExperiment(b, "E14") }
func BenchmarkE15HighMemory(b *testing.B)     { benchExperiment(b, "E15") }
func BenchmarkE16Equilibrium(b *testing.B)    { benchExperiment(b, "E16") }
func BenchmarkE17RogueExtension(b *testing.B) { benchExperiment(b, "E17") }

// Ablation benches (A-series: design choices).

func BenchmarkA1NoRoundCheck(b *testing.B)    { benchExperiment(b, "A1") }
func BenchmarkA2ShortSubphase(b *testing.B)   { benchExperiment(b, "A2") }
func BenchmarkA3AdversaryTiming(b *testing.B) { benchExperiment(b, "A3") }
func BenchmarkA4Schedulers(b *testing.B)      { benchExperiment(b, "A4") }
func BenchmarkA5Geometric(b *testing.B)       { benchExperiment(b, "A5") }
func BenchmarkA6ClockDrift(b *testing.B)      { benchExperiment(b, "A6") }
func BenchmarkA7GeoAdversary(b *testing.B)    { benchExperiment(b, "A7") }
func BenchmarkA8Topology(b *testing.B)        { benchExperiment(b, "A8") }
func BenchmarkA9PatchAttacks(b *testing.B)    { benchExperiment(b, "A9") }

// Simulator throughput: rounds and agent-steps per second across N.
// workers = 0 means runtime.NumCPU() (the engine default); the *Workers1
// variants pin the serial path so the parallel speedup is
// agentsteps/s(default) / agentsteps/s(Workers1) on a multi-core machine.

func benchRounds(b *testing.B, n, workers int, topology string) {
	b.Helper()
	s, err := popstab.New(popstab.Spec{
		N: n, Tinner: 2 * logOf(n), Seed: 1, Workers: workers, Topology: topology,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	steps := 0
	for i := 0; i < b.N; i++ {
		s.RunRound()
		steps += s.Size()
	}
	b.StopTimer()
	b.ReportMetric(float64(steps)/float64(b.N), "agents/round")
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(steps)/sec, "agentsteps/s")
	}
}

func BenchmarkRoundN4096(b *testing.B)   { benchRounds(b, 4096, 0, "mixed") }
func BenchmarkRoundN16384(b *testing.B)  { benchRounds(b, 16384, 0, "mixed") }
func BenchmarkRoundN65536(b *testing.B)  { benchRounds(b, 65536, 0, "mixed") }
func BenchmarkRoundN262144(b *testing.B) { benchRounds(b, 262144, 0, "mixed") }

func BenchmarkRoundN1048576(b *testing.B) { benchRounds(b, 1048576, 0, "mixed") }

// N = 2²⁴: the target scale of the sharded apply/compaction work. The
// protocol needs N a power of four (even log N, DESIGN §2), so the first
// admissible size past 2²³ is 2²⁴ = 16777216. One round over 16M agents
// touches hundreds of MB of agent (and, on the torus, position) state, so
// this is a memory-bandwidth benchmark as much as a CPU one; keep b.N low
// (-benchtime 3x) outside dedicated perf runs.
func BenchmarkRoundN16777216(b *testing.B) { benchRounds(b, 16777216, 0, "mixed") }

func BenchmarkTorusRoundN1048576(b *testing.B)  { benchRounds(b, 1048576, 0, "torus") }
func BenchmarkTorusRoundN16777216(b *testing.B) { benchRounds(b, 16777216, 0, "torus") }

func BenchmarkRoundN65536Workers1(b *testing.B)   { benchRounds(b, 65536, 1, "mixed") }
func BenchmarkRoundN262144Workers1(b *testing.B)  { benchRounds(b, 262144, 1, "mixed") }
func BenchmarkRoundN1048576Workers1(b *testing.B) { benchRounds(b, 1048576, 1, "mixed") }

// benchTorusMatch measures the sharded spatial matching phase alone —
// grid bucketing + candidate search + greedy walk over a uniform
// population — reporting matched-over agents per second. Each iteration
// rewrites one position in place, so every sample builds its candidate rows
// instead of reusing the last sample's. Compare default workers against the
// Workers1 variant for the pipeline's parallel speedup.
func benchTorusMatch(b *testing.B, n, workers int) {
	b.Helper()
	tor, err := match.NewTorus(1 / math.Sqrt(float64(n)))
	if err != nil {
		b.Fatal(err)
	}
	pop := population.New(n)
	tor.Bind(pop, prng.New(1))
	if workers == 0 {
		workers = runtime.NumCPU()
	}
	pl := pool.New(workers)
	defer pl.Close()
	tor.SetPool(pl)
	src := prng.New(2)
	ps := tor.Positions()
	var p match.Pairing
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps.SetAt(0, ps.At(0))
		tor.SampleMatch(pop, src, &p)
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(n)*float64(b.N)/sec, "agentsteps/s")
	}
}

func BenchmarkTorusMatchN1048576(b *testing.B)         { benchTorusMatch(b, 1048576, 0) }
func BenchmarkTorusMatchN1048576Workers1(b *testing.B) { benchTorusMatch(b, 1048576, 1) }

// BenchmarkTorusWalkClusteredN1048576 measures the matching phase when the
// whole population crowds into one small patch — the stress case for the
// candidate search and the exact fallback rescan, since every cell is
// crowded and candidate lists overlap heavily. Each iteration rewrites one
// position in place, so every sample builds its candidate rows and
// dists/agent stays the clustered input's per-build count.
func BenchmarkTorusWalkClusteredN1048576(b *testing.B) {
	const n = 1 << 20
	tor, err := match.NewTorus(1 / math.Sqrt(float64(n)))
	if err != nil {
		b.Fatal(err)
	}
	pop := population.New(n)
	tor.Bind(pop, prng.New(1))
	// Pile everyone into a radius-0.05 patch around the center: ~100
	// agents per grid cell, while the bounded candidate lists keep the
	// serial walk linear.
	ps := tor.Positions()
	mut := prng.New(9)
	for i := range n {
		ps.SetAt(i, tor.PatchPoint(population.Point{X: 0.5, Y: 0.5}, 0.05, mut))
	}
	pl := pool.New(runtime.NumCPU())
	defer pl.Close()
	tor.SetPool(pl)
	src := prng.New(2)
	var p match.Pairing
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps.SetAt(0, ps.At(0))
		tor.SampleMatch(pop, src, &p)
	}
	b.StopTimer()
	st := tor.PipelineStats()
	if st.SerialWalks != st.Samples || st.RowBuilds != st.Samples {
		b.Fatalf("of %d samples, %d ran the serial walk and %d built their rows", st.Samples, st.SerialWalks, st.RowBuilds)
	}
	// Exact work, independent of the host: what pruning would cut.
	b.ReportMetric(float64(st.DistEvals)/float64(st.Samples*n), "dists/agent")
	b.ReportMetric(float64(st.Rescans)/float64(st.Samples), "rescans/op")
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(n)*float64(b.N)/sec, "agentsteps/s")
	}
}

// churnStepper is a synthetic apply-heavy program: each agent dies with
// probability 1/4 and splits with probability 1/4 every round, so about
// half the population turns over per round — the worst case for the
// sharded apply/compaction path (the real protocol churns a few percent).
// The process is critical (E[offspring] = 1), so the size random-walks
// around N without drifting over a benchmark's horizon.
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

// benchChurnRounds measures a round dominated by apply/compaction: compose
// and matching are trivial under churnStepper, so nearly all the time is
// the step's coin flips and the compaction over ~n/4 deaths and ~n/4
// births.
func benchChurnRounds(b *testing.B, n, workers int) {
	b.Helper()
	p, err := params.Derive(n, params.WithTinner(2*logOf(n)))
	if err != nil {
		b.Fatal(err)
	}
	eng, err := sim.New(sim.Config{Params: p, Protocol: sim.Lift(churnStepper{}), Seed: 1, Workers: workers})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	b.ReportAllocs()
	b.ResetTimer()
	steps := 0
	for i := 0; i < b.N; i++ {
		eng.RunRound()
		steps += eng.Size()
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(steps)/sec, "agentsteps/s")
	}
}

func BenchmarkChurnRoundN1048576(b *testing.B)         { benchChurnRounds(b, 1048576, 0) }
func BenchmarkChurnRoundN1048576Workers1(b *testing.B) { benchChurnRounds(b, 1048576, 1) }
func BenchmarkChurnRoundN16777216(b *testing.B)        { benchChurnRounds(b, 16777216, 0) }

// BenchmarkEpochN4096 measures one full protocol epoch.
func BenchmarkEpochN4096(b *testing.B) {
	sim, err := popstab.New(popstab.Spec{N: 4096, Tinner: 24, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.RunEpoch()
	}
}

// BenchmarkAdversarialRoundN4096 measures a round including the adversary
// turn (view construction + budget accounting).
func BenchmarkAdversarialRoundN4096(b *testing.B) {
	sim, err := popstab.New(popstab.Spec{N: 4096, Tinner: 24, Seed: 1, Adversary: "greedy", K: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.RunRound()
	}
}

func logOf(n int) int {
	lg := 0
	for v := n; v > 1; v >>= 1 {
		lg++
	}
	return lg
}
