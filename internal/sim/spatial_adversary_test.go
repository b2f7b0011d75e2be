package sim

import (
	"fmt"
	"runtime"
	"testing"

	"popstab/internal/adversary"
	"popstab/internal/match"
	"popstab/internal/population"
	"popstab/internal/prng"
	"popstab/internal/protocol"
)

// TestAdversaryInsertAtPlacesExactly pins the placement path end to end: an
// adversary that stages InsertAt insertions sees its agents appear at
// exactly the chosen positions in the matcher's side-array, while plain
// Insert agents take the oblivious uniform placement.
func TestAdversaryInsertAtPlacesExactly(t *testing.T) {
	p := fastParams(t)
	ring, err := match.NewRing(1.0 / float64(p.N))
	if err != nil {
		t.Fatal(err)
	}
	want := population.Point{X: 0.123456}
	ins := adversary.NewClusterInserter(want, 0, nil) // radius 0: exactly the center
	e := MustNew(Config{
		Params: p, Protocol: protocol.MustNew(p), Seed: 11, Workers: 1,
		Matcher: ring, Adversary: ins, K: 3, InitialSize: 64,
	})
	before := e.Size()
	e.RunRound()
	pos := ring.Positions()
	if pos.Len() != e.Size() {
		t.Fatalf("positions %d out of sync with population %d", pos.Len(), e.Size())
	}
	placed := 0
	for i := 0; i < pos.Len(); i++ {
		if pos.At(i) == want {
			placed++
		}
	}
	if placed != 3 {
		t.Errorf("%d agents at the chosen point, want the 3 staged insertions (size %d -> %d)",
			placed, before, e.Size())
	}
}

// TestAdversaryDeleteNearEmptiesBall drives PatchDeleter against a ring
// engine and asserts the ball around the patch center thins out while the
// rest of the circle stays populated.
func TestAdversaryDeleteNearEmptiesBall(t *testing.T) {
	p := fastParams(t)
	ring, err := match.NewRing(1.0 / float64(p.N))
	if err != nil {
		t.Fatal(err)
	}
	center := population.Point{X: 0.5}
	radius := 0.05
	e := MustNew(Config{
		Params: p, Protocol: protocol.MustNew(p), Seed: 13, Workers: 1,
		Matcher: ring, Adversary: adversary.NewPatchDeleter(center, radius), K: 64,
	})
	rep := e.RunRound()
	if rep.AdvDeleted != 64 {
		t.Fatalf("patch deleter removed %d, want full budget 64", rep.AdvDeleted)
	}
	// ~10% of 4096 agents start inside the ball (~410); after two more full-
	// budget rounds ~192 of them are gone, all from the ball.
	e.RunRound()
	e.RunRound()
	inBall := 0
	pos := ring.Positions()
	for i := 0; i < pos.Len(); i++ {
		if match.RingDist2(pos.At(i), center) <= radius*radius {
			inBall++
		}
	}
	// The expected survivor count is ~(0.1·N − 3·64) ≈ 218 (protocol
	// births/deaths jitter it); assert the ball lost roughly the deleted
	// mass and nothing pathological happened elsewhere.
	if inBall > 300 {
		t.Errorf("ball still holds %d agents after 192 concentrated deletions", inBall)
	}
	if e.Size() < p.N-3*64-64 {
		t.Errorf("population %d fell further than the adversary's deletions explain", e.Size())
	}
}

// rewiredPatch binds a rewire denier to the matcher and acts with a patch
// combo: the denier's Act is a no-op, so the combo's turn is the whole turn.
type rewiredPatch struct {
	deny  *adversary.RewireAdversary
	patch *adversary.PatchCombo
}

func (a rewiredPatch) Name() string { return "patch-combo+rewire" }

func (a rewiredPatch) Act(v adversary.View, m adversary.Mutator, src *prng.Source) {
	a.patch.Act(v, m, src)
}

func (a rewiredPatch) BindMatcher(m match.Matcher) { a.deny.BindMatcher(m) }

// TestSpatialAdversaryParallelDeterminism is the golden determinism
// guarantee with the spatial adversary seam active: identical RoundReport
// and Census trajectories for Workers ∈ {1, 2, NumCPU} under a patch
// adversary (InsertAt + DeleteNear through the placement queue) on each
// spatial topology, and under adversarial rewiring on SmallWorld. The
// adversary turn is serial and precedes the matching, so placement and
// rewiring control must be invisible to the worker count.
func TestSpatialAdversaryParallelDeterminism(t *testing.T) {
	p := fastParams(t)
	center := population.Point{X: 0.5, Y: 0.5}
	mk := func(topo string) func() (match.Matcher, error) {
		s2 := 0.015625 // 1/√4096
		s1 := 1.0 / 4096
		switch topo {
		case "torus":
			return func() (match.Matcher, error) { return match.NewTorus(s2) }
		case "ring":
			return func() (match.Matcher, error) { return match.NewRing(s1) }
		case "smallworld":
			return func() (match.Matcher, error) { return match.NewSmallWorld(s1, 0.3) }
		}
		panic("unknown topo")
	}
	mkAdv := func(topo string) adversary.Adversary {
		patch := adversary.NewPatchCombo(center, 0.05, nil)
		if topo == "smallworld" {
			return rewiredPatch{deny: adversary.NewRewireDenier(center, 0.1), patch: patch}
		}
		return patch
	}
	workers := []int{2, runtime.NumCPU()}
	for _, topo := range []string{"torus", "ring", "smallworld"} {
		t.Run(topo, func(t *testing.T) {
			run := func(w int) trajectory {
				m, err := mk(topo)()
				if err != nil {
					t.Fatal(err)
				}
				return runTrajectory(t, Config{
					Params: p, Protocol: protocol.MustNew(p), Seed: 404,
					Matcher: m, Adversary: mkAdv(topo), K: 4, Workers: w,
				}, 2*p.T)
			}
			want := run(1)
			advActed := false
			for _, rep := range want.reports {
				if rep.AdvDeleted > 0 || rep.AdvInserted > 0 {
					advActed = true
					break
				}
			}
			if !advActed {
				t.Fatal("degenerate arm: spatial adversary never acted")
			}
			for _, w := range workers {
				got := run(w)
				assertTrajectoriesEqual(t, want, got, fmt.Sprintf("%s workers=%d", topo, w))
			}
		})
	}
}

// TestRewireDenyAllMatchesBetaZero pins the adversarial-rewiring semantics:
// denying every agent's rewiring reproduces the β = 0 trajectory exactly
// (the β coin is short-circuited in both cases, so no stream drifts).
func TestRewireDenyAllMatchesBetaZero(t *testing.T) {
	p := fastParams(t)
	s1 := 1.0 / float64(p.N)
	run := func(beta float64, adv adversary.Adversary) trajectory {
		m, err := match.NewSmallWorld(s1, beta)
		if err != nil {
			t.Fatal(err)
		}
		k := 0
		if adv != nil {
			k = 1 // the rewire adversary spends nothing, but enable the turn
		}
		return runTrajectory(t, Config{
			Params: p, Protocol: protocol.MustNew(p), Seed: 77,
			Matcher: m, Adversary: adv, K: k, Workers: 1,
		}, p.T)
	}
	want := run(0, nil)
	got := run(0.7, adversary.NewRewireDenier(population.Point{}, -1))
	// The denier's engine runs an adversary turn (constructing an empty
	// budget) but consumes no randomness and stages nothing, so the
	// trajectories must agree exactly.
	assertTrajectoriesEqual(t, want, got, "deny-all vs beta=0")
	// Pacing must not unbind the denier: Paced hands the matcher on to its
	// inner strategy, or the β coin would run and the trajectory drift.
	paced := run(0.7, adversary.NewPaced(9, adversary.NewRewireDenier(population.Point{}, -1)))
	assertTrajectoriesEqual(t, want, paced, "paced deny-all vs beta=0")
}
