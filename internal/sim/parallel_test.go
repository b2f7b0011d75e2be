package sim

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"popstab/internal/adversary"
	"popstab/internal/match"
	"popstab/internal/pool"
	"popstab/internal/population"
	"popstab/internal/protocol"
	"popstab/internal/wire"
)

// trajectory captures everything RunRound reports plus a census snapshot,
// so two runs comparing equal means the simulations are bit-identical at
// the observable level.
type trajectory struct {
	reports  []RoundReport
	censuses []population.Census
}

func runTrajectory(t *testing.T, cfg Config, rounds int) trajectory {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var tr trajectory
	for i := 0; i < rounds; i++ {
		tr.reports = append(tr.reports, e.RunRound())
		tr.censuses = append(tr.censuses, e.Census())
	}
	return tr
}

func assertTrajectoriesEqual(t *testing.T, a, b trajectory, label string) {
	t.Helper()
	for i := range a.reports {
		if a.reports[i] != b.reports[i] {
			t.Fatalf("%s: RoundReport diverged at round %d:\n  a=%+v\n  b=%+v",
				label, i, a.reports[i], b.reports[i])
		}
		if fmt.Sprintf("%+v", a.censuses[i]) != fmt.Sprintf("%+v", b.censuses[i]) {
			t.Fatalf("%s: Census diverged at round %d:\n  a=%+v\n  b=%+v",
				label, i, a.censuses[i], b.censuses[i])
		}
	}
}

// TestParallelDeterminism is the golden determinism guarantee of the
// parallel round engine: identical RoundReport and Census trajectories for
// Workers ∈ {1, 2, 3, 8}, with and without an adversary. The worker pool
// shards the compose/step phases, so any order dependence in per-agent
// randomness or any cross-shard interference would show up here (and under
// -race, which this test also serves as the workload for).
func TestParallelDeterminism(t *testing.T) {
	p := fastParams(t)
	arms := []struct {
		name string
		cfg  Config
	}{
		{"clean", Config{Seed: 101}},
		{"greedy-adversary", Config{Seed: 102, K: 3, Adversary: adversary.NewGreedy()}},
		{"after-step-timing", Config{Seed: 103, K: 2, Adversary: adversary.NewBenignInserter(), AdversaryAfterStep: true}},
	}
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			serial := arm.cfg
			serial.Params = p
			serial.Protocol = protocol.MustNew(p)
			serial.Workers = 1
			want := runTrajectory(t, serial, 2*p.T)
			for _, w := range []int{2, 3, 8} {
				cfg := arm.cfg
				cfg.Params = p
				cfg.Protocol = protocol.MustNew(p)
				cfg.Workers = w
				got := runTrajectory(t, cfg, 2*p.T)
				assertTrajectoriesEqual(t, want, got, fmt.Sprintf("workers=%d", w))
			}
		})
	}
}

// TestParallelCounters asserts the protocol's event counters reach identical
// totals across worker counts (the events are per-agent deterministic; only
// the order of the adds varies, and the range step batches its adds per
// part). The wrong-round inserter and the eval flooder drive the
// consistency check and the evaluation phase's deaths and splits.
func TestParallelCounters(t *testing.T) {
	p := fastParams(t)
	run := func(adv adversary.Adversary, workers int) protocol.Counters {
		pr := protocol.MustNew(p)
		e, err := New(Config{Params: p, Protocol: pr, Seed: 55, Workers: workers,
			K: 2, Adversary: adv})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		e.RunRounds(2 * p.T)
		return *pr.Counters()
	}
	arms := []struct {
		name string
		adv  func() adversary.Adversary
		// attack marks the inserters, whose runs count every event.
		attack bool
	}{
		{"greedy", func() adversary.Adversary { return adversary.NewGreedy() }, false},
		{"wrong-round", func() adversary.Adversary { return adversary.NewWrongRoundInserter(p.T / 2) }, true},
		{"eval-flooder", func() adversary.Adversary { return adversary.NewEvalFlooder() }, true},
	}
	for _, arm := range arms {
		want := run(arm.adv(), 1)
		if want.Leaders == 0 || want.Recruits == 0 {
			t.Fatalf("%s: degenerate run, counters empty: %+v", arm.name, want)
		}
		if arm.attack && (want.ConsistencyDeaths == 0 || want.EvalSplits == 0 || want.EvalDeaths == 0 || want.RecruitMisses == 0) {
			t.Fatalf("%s: an event went uncounted: %+v", arm.name, want)
		}
		for _, w := range []int{2, 8} {
			if got := run(arm.adv(), w); got != want {
				t.Errorf("%s: workers=%d counters diverged:\n  got  %+v\n  want %+v", arm.name, w, got, want)
			}
		}
	}
}

// perAgent hides a program's RangeStepper capability, so the engine drives
// it agent by agent.
type perAgent struct{ Stepper }

// TestRangeStepperMatchesPerAgent runs the paper protocol through its range
// methods and, wrapped in perAgent, through the per-agent path, under
// adversaries that exercise the round check and both codecs, and requires
// the same population, agent for agent, after every round and the same
// counters at the end.
func TestRangeStepperMatchesPerAgent(t *testing.T) {
	p := fastParams(t)
	arms := []struct {
		name string
		adv  func() adversary.Adversary
		opts []protocol.Option
	}{
		{"greedy", func() adversary.Adversary { return adversary.NewGreedy() }, nil},
		{"wrong-round", func() adversary.Adversary { return adversary.NewWrongRoundInserter(p.T / 2) }, nil},
		{"eval-flooder-4bit", func() adversary.Adversary { return adversary.NewEvalFlooder() },
			[]protocol.Option{protocol.WithCodec(wire.FourBit{})}},
		{"wrong-round-no-check", func() adversary.Adversary { return adversary.NewWrongRoundInserter(p.T / 2) },
			[]protocol.Option{protocol.WithoutRoundCheck()}},
	}
	for _, arm := range arms {
		for _, w := range []int{1, 2} {
			ranged, plain := protocol.MustNew(p, arm.opts...), protocol.MustNew(p, arm.opts...)
			a := MustNew(Config{Params: p, Protocol: ranged, Seed: 77, K: 2, Adversary: arm.adv(), Workers: w})
			b := MustNew(Config{Params: p, Protocol: perAgent{plain}, Seed: 77, K: 2, Adversary: arm.adv(), Workers: w})
			if a.ranged == nil || b.ranged != nil {
				t.Fatalf("%s: engine path not chosen by program type", arm.name)
			}
			for r := 0; r < 2*p.T; r++ {
				a.RunRound()
				b.RunRound()
				if !slices.Equal(a.pop.States(), b.pop.States()) {
					t.Fatalf("%s workers=%d: populations diverged in round %d", arm.name, w, r)
				}
			}
			if *ranged.Counters() != *plain.Counters() {
				t.Errorf("%s workers=%d: counters %+v, per-agent %+v", arm.name, w, *ranged.Counters(), *plain.Counters())
			}
			a.Close()
			b.Close()
		}
	}
}

// TestWorkersValidation rejects negative worker counts and accepts the
// NumCPU default.
func TestWorkersValidation(t *testing.T) {
	p := fastParams(t)
	pr := protocol.MustNew(p)
	if _, err := New(Config{Params: p, Protocol: pr, Workers: -1}); err == nil {
		t.Error("New accepted negative Workers")
	}
	e, err := New(Config{Params: p, Protocol: pr})
	if err != nil {
		t.Fatal(err)
	}
	if w := e.pool.Workers(); w < 1 {
		t.Errorf("default workers %d", w)
	}
}

// TestShardCapSmallPopulation drives a population far below minShardAgents
// with many workers: the shard cap must degrade to the serial path without
// changing behavior (covered by determinism) or panicking on zero shards.
func TestShardCapSmallPopulation(t *testing.T) {
	p := fastParams(t)
	pr := protocol.MustNew(p)
	e, err := New(Config{Params: p, Protocol: pr, Seed: 9, Workers: 16, InitialSize: 37})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*p.T; i++ {
		e.RunRound()
	}
	if e.Size() < 0 {
		t.Fatal("impossible")
	}
}

// TestScratchGrowthSlack documents the 1.5× scratch-buffer growth policy:
// after a forced growth step the buffers must have room beyond the exact
// population size.
func TestScratchGrowthSlack(t *testing.T) {
	p := fastParams(t)
	pr := protocol.MustNew(p)
	e := MustNew(Config{Params: p, Protocol: pr, Seed: 1})
	e.RunRound()
	e.ForceResize(2 * p.N)
	e.RunRound()
	if got, min := cap(e.msgs), 2*p.N; got < min+min/2 {
		t.Errorf("scratch capacity %d after growth to %d, want >= %d", got, min, min+min/2)
	}
}

// poolRecorder is a Matcher that records the pool the engine hands it
// through the match.PoolSetter seam.
type poolRecorder struct {
	match.Matcher
	got *pool.Pool
}

func (r *poolRecorder) SetPool(p *pool.Pool) { r.got = p }

// TestEngineWiresMatcherPool pins the PoolSetter plumbing: the engine hands
// its own pool, sized to the resolved worker count (including the NumCPU
// default for Workers = 0), to matchers that shard their own matching
// phase.
func TestEngineWiresMatcherPool(t *testing.T) {
	p := fastParams(t)
	for _, workers := range []int{0, 1, 3} {
		pr, err := protocol.New(p)
		if err != nil {
			t.Fatal(err)
		}
		u, err := match.NewUniform(p.Gamma)
		if err != nil {
			t.Fatal(err)
		}
		rec := &poolRecorder{Matcher: match.FromScheduler(u)}
		e, err := New(Config{Params: p, Protocol: pr, Seed: 1, Workers: workers, Matcher: rec})
		if err != nil {
			t.Fatal(err)
		}
		want := workers
		if want == 0 {
			want = runtime.NumCPU()
		}
		if rec.got != e.pool || rec.got.Workers() != want {
			t.Errorf("Workers=%d: matcher did not receive the engine's %d-worker pool", workers, want)
		}
		e.Close()
	}
}
