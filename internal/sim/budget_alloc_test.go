package sim

import (
	"testing"

	"popstab/internal/adversary"
	"popstab/internal/match"
	"popstab/internal/prng"
)

// stagingAdversary spends its whole budget every turn, alternating a
// deletion of agent i with an insertion of a copy of agent i+1 at agent
// i+1's position, so the population keeps its size and, on a spatial
// topology, every insertion goes through the placement queue.
type stagingAdversary struct{}

func (stagingAdversary) Name() string { return "staging" }

func (stagingAdversary) Act(v adversary.View, m adversary.Mutator, _ *prng.Source) {
	for i := 0; m.Remaining() >= 2 && i+1 < v.Len(); i += 2 {
		m.Delete(i)
		m.InsertAt(v.State(i+1), v.Pos(i+1))
	}
}

// TestAdversaryTurnAllocFree pins the adversary turn's allocation-free
// steady state on the well-mixed topology and on the torus: the engine's
// one Budget is Reset each turn, Deletions sorts into its reused slice,
// and the metric handed to BindSpace is bound once at construction. The
// first turn grows the reused storage; later turns of the same shape must
// allocate nothing.
func TestAdversaryTurnAllocFree(t *testing.T) {
	const k = 16
	p := fastParams(t)
	for _, name := range []string{"mixed", "torus"} {
		t.Run(name, func(t *testing.T) {
			cfg := Config{Seed: 3, Workers: 1, Adversary: stagingAdversary{}, K: k}
			if name == "torus" {
				tor, err := match.NewTorus(0.015625)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Matcher = tor
			}
			e, _ := newEngine(t, p, cfg)
			defer e.Close()
			var rep RoundReport
			e.adversaryTurn(&rep)
			if rep.AdvDeleted != k/2 || rep.AdvInserted != k/2 {
				t.Fatalf("turn deleted %d and inserted %d, want %d each", rep.AdvDeleted, rep.AdvInserted, k/2)
			}
			if allocs := testing.AllocsPerRun(50, func() { e.adversaryTurn(&rep) }); allocs != 0 {
				t.Errorf("adversary turn allocates %v times", allocs)
			}
		})
	}
}
