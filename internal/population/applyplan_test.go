package population

import (
	"fmt"
	"testing"

	"popstab/internal/pool"
	"popstab/internal/prng"
)

// planFixture runs one plan-vs-ReplayApply comparison: the same action
// array applied through the serial reference and through the plan (on a
// pool of the given worker count), over an int payload array, a staged
// side-array whose "spawn" consumes a serial stream, and a pure-spawn
// side-array.
func checkPlanMatchesReplay(t *testing.T, actions []Action, workers int) {
	t.Helper()
	n := len(actions)
	base := make([]int, n)
	for i := range base {
		base[i] = i * 3
	}
	spawn := func(parent int) int { return parent + 1_000_000 }

	// Serial reference.
	ref := ReplayApply(append([]int(nil), base...), actions, spawn)

	// Staged reference: a spawn that consumes a serial randomness stream,
	// exactly like Positions.Spawn — drawn in action order by ReplayApply.
	refSrc := prng.New(42)
	refStaged := ReplayApply(append([]int(nil), base...), actions,
		func(parent int) int { return parent + int(refSrc.Uint64()%1000) })

	p := pool.New(workers)
	defer p.Close()
	var pl ApplyPlan
	pl.build(actions, p)

	if got, want := pl.Len(), len(ref); got != want {
		t.Fatalf("plan Len() = %d, ReplayApply produced %d", got, want)
	}
	wantDeaths := 0
	for _, a := range actions {
		if a == ActDie {
			wantDeaths++
		}
	}
	if pl.Deaths() != wantDeaths {
		t.Fatalf("plan Deaths() = %d, want %d", pl.Deaths(), wantDeaths)
	}

	got, _ := ApplyPlanned(&pl, append([]int(nil), base...), nil, spawn)
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("workers=%d: ApplyPlanned[%d] = %d, ReplayApply = %d", workers, i, got[i], ref[i])
		}
	}

	// Staged path: draw daughters serially via SplitIndices (the draw order
	// must equal ReplayApply's action-order spawn calls), then scatter.
	src := prng.New(42)
	idx := pl.SplitIndices()
	daughters := make([]int, 0, len(idx))
	for _, i := range idx {
		daughters = append(daughters, base[i]+int(src.Uint64()%1000))
	}
	gotStaged, _ := ApplyPlannedStaged(&pl, append([]int(nil), base...), nil, daughters)
	for i := range refStaged {
		if gotStaged[i] != refStaged[i] {
			t.Fatalf("workers=%d: ApplyPlannedStaged[%d] = %d, ReplayApply = %d", workers, i, gotStaged[i], refStaged[i])
		}
	}
}

// TestApplyPlanMatchesReplayApply fuzzes random action arrays across worker
// counts and checks the plan reproduces ReplayApply's layout element for
// element, for both the concurrent-spawn and staged-daughter paths.
func TestApplyPlanMatchesReplayApply(t *testing.T) {
	src := prng.New(7)
	sizes := []int{0, 1, 2, 3, 17, 100, 1000, 8192, 30000}
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range sizes {
			for trial := 0; trial < 3; trial++ {
				actions := make([]Action, n)
				for i := range actions {
					switch src.Uint64() % 10 {
					case 0, 1:
						actions[i] = ActDie
					case 2, 3:
						actions[i] = ActSplit
					default:
						actions[i] = ActKeep
					}
				}
				checkPlanMatchesReplay(t, actions, workers)
			}
		}
	}
}

// TestApplyPlanExtremes pins the all-die, all-split, and all-keep rounds —
// the boundary layouts (empty output, doubled output, identity) — across
// worker counts.
func TestApplyPlanExtremes(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, tc := range []struct {
			name string
			act  Action
		}{{"all-die", ActDie}, {"all-split", ActSplit}, {"all-keep", ActKeep}} {
			t.Run(fmt.Sprintf("%s/w%d", tc.name, workers), func(t *testing.T) {
				actions := make([]Action, 20000)
				for i := range actions {
					actions[i] = tc.act
				}
				checkPlanMatchesReplay(t, actions, workers)
			})
		}
	}
}

// TestApplyPlanShardCountInvariance builds the same plan on different
// worker counts and checks the slot layout is identical: the bases are
// global prefix sums, so shard boundaries must not show in the output.
func TestApplyPlanShardCountInvariance(t *testing.T) {
	src := prng.New(11)
	actions := make([]Action, 50000)
	for i := range actions {
		switch src.Uint64() % 4 {
		case 0:
			actions[i] = ActDie
		case 1:
			actions[i] = ActSplit
		default:
			actions[i] = ActKeep
		}
	}
	base := make([]int, len(actions))
	for i := range base {
		base[i] = i
	}
	spawn := func(parent int) int { return -parent }

	var want []int
	for _, workers := range []int{1, 2, 3, 5, 8, 16} {
		p := pool.New(workers)
		var pl ApplyPlan
		pl.build(actions, p)
		got, _ := ApplyPlanned(&pl, append([]int(nil), base...), nil, spawn)
		p.Close()
		if want == nil {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: length %d, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d = %d, workers=1 had %d", workers, i, got[i], want[i])
			}
		}
	}
}

// TestApplyThroughPlanWithInterleavedTrackers drives Population.Apply with
// a mix of trackers attached — Positions (staged randomness-consuming
// spawn), a sharded int side-array, and an int side-array that replays the
// plan's actions through ReplayApply — and checks all stay aligned with a
// population evolved through the serial reference.
func TestApplyThroughPlanWithInterleavedTrackers(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			const n = 9000
			p := pool.New(workers)
			defer p.Close()

			pop := New(n)
			pop.SetPool(p)
			planT := &planIntTracker{}
			replay := &intTracker{}
			posSrc := prng.New(99)
			pos := &Positions{
				Place: PlaceFunc(func() Point { return Point{X: posSrc.Float64(), Y: posSrc.Float64()} }),
				Spawn: func(parent Point) Point { return Point{X: parent.X + posSrc.Float64(), Y: parent.Y} },
			}
			pop.Attach(planT)
			pop.Attach(replay)
			pop.Attach(pos)

			refPop := New(n)
			refT := &intTracker{}
			refSrc := prng.New(99)
			refPos := &Positions{
				Place: PlaceFunc(func() Point { return Point{X: refSrc.Float64(), Y: refSrc.Float64()} }),
				Spawn: func(parent Point) Point { return Point{X: parent.X + refSrc.Float64(), Y: parent.Y} },
			}
			refPop.Attach(refT)
			refPop.Attach(refPos)

			actSrc := prng.New(5)
			for round := 0; round < 20; round++ {
				actions := make([]Action, pop.Len())
				for i := range actions {
					switch actSrc.Uint64() % 6 {
					case 0:
						actions[i] = ActDie
					case 1, 2:
						actions[i] = ActSplit
					default:
						actions[i] = ActKeep
					}
				}
				b1, d1 := pop.Apply(actions)
				b2, d2 := refPop.Apply(actions)
				if b1 != b2 || d1 != d2 {
					t.Fatalf("round %d: births/deaths (%d,%d) vs reference (%d,%d)", round, b1, d1, b2, d2)
				}
				if pop.Len() != refPop.Len() {
					t.Fatalf("round %d: size %d vs reference %d", round, pop.Len(), refPop.Len())
				}
				if err := pop.CheckAligned(); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				for i := 0; i < pop.Len(); i++ {
					if planT.vals[i] != refT.vals[i] || replay.vals[i] != refT.vals[i] {
						t.Fatalf("round %d slot %d: plan=%d replay=%d ref=%d",
							round, i, planT.vals[i], replay.vals[i], refT.vals[i])
					}
					if pos.At(i) != refPos.At(i) {
						t.Fatalf("round %d slot %d: pos %v, reference %v", round, i, pos.At(i), refPos.At(i))
					}
				}
			}
		})
	}
}

// intTracker is a minimal side-array: each slot holds a unique id assigned
// at attach/insert, daughters copy the parent. It replays each plan through
// the serial ReplayApply reference.
type intTracker struct {
	vals []int
	next int
}

func (tr *intTracker) Len() int { return len(tr.vals) }
func (tr *intTracker) Attached(n int) {
	tr.vals = make([]int, 0, n)
	for i := 0; i < n; i++ {
		tr.vals = append(tr.vals, tr.next)
		tr.next++
	}
}
func (tr *intTracker) Inserted(i int) {
	tr.vals = append(tr.vals, tr.next)
	tr.next++
}
func (tr *intTracker) DeletedSwap(i, last int) {
	tr.vals[i] = tr.vals[last]
	tr.vals = tr.vals[:last]
}
func (tr *intTracker) AppliedPlan(pl *ApplyPlan) {
	tr.vals = ReplayApply(tr.vals, pl.Actions(), func(parent int) int { return parent })
}

// planIntTracker is intTracker applying the plan through the sharded
// ApplyPlanned scatter.
type planIntTracker struct {
	intTracker
	spare []int
}

func (tr *planIntTracker) AppliedPlan(pl *ApplyPlan) {
	tr.vals, tr.spare = ApplyPlanned(pl, tr.vals, tr.spare, func(parent int) int { return parent })
}
