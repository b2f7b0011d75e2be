package population

import (
	"fmt"
	"slices"
	"testing"

	"popstab/internal/agent"
	"popstab/internal/prng"
)

// applyFixture drives a Population with two trackers attached — an int
// side-array and a Positions whose Place and Spawn both consume one serial
// stream, like a matcher's placement stream — and mirrors every mutation on
// plain slices, compacted by the ReplayApply reference. check compares the
// two.
type applyFixture struct {
	pop  *Population
	ints *intTracker
	pos  *Positions

	// The reference: the same mutations on plain slices. src replays the
	// placement stream in the same draw order as the Positions under test.
	states []agent.State
	vals   []int
	pts    []Point
	src    *prng.Source
}

// newApplyFixture builds a population of the given states with both
// trackers attached, and its reference, drawing placements from seed.
func newApplyFixture(states []agent.State, seed uint64) *applyFixture {
	posSrc := prng.New(seed)
	f := &applyFixture{
		pop:  FromStates(states),
		ints: &intTracker{},
		pos: &Positions{
			Place: func() Point { return Point{X: posSrc.Float64(), Y: posSrc.Float64()} },
			Spawn: func(parent Point) Point { return Point{X: parent.X + posSrc.Float64(), Y: parent.Y} },
		},
		states: slices.Clone(states),
		src:    prng.New(seed),
	}
	f.pop.Attach(f.ints)
	f.pop.Attach(f.pos)
	for i := range states {
		f.vals = append(f.vals, i)
		f.pts = append(f.pts, Point{X: f.src.Float64(), Y: f.src.Float64()})
	}
	return f
}

func (f *applyFixture) insert(s agent.State) {
	f.pop.Insert(s)
	f.states = append(f.states, s)
	f.vals = append(f.vals, f.ints.next-1)
	f.pts = append(f.pts, Point{X: f.src.Float64(), Y: f.src.Float64()})
}

func (f *applyFixture) deleteSwap(i int) {
	f.pop.DeleteSwap(i)
	last := len(f.states) - 1
	f.states[i], f.vals[i], f.pts[i] = f.states[last], f.vals[last], f.pts[last]
	f.states, f.vals, f.pts = f.states[:last], f.vals[:last], f.pts[:last]
}

// apply runs Population.Apply and the reference compaction, and checks
// Apply's birth and death counts against the actions.
func (f *applyFixture) apply(actions []Action) error {
	wantBirths, wantDeaths := 0, 0
	for _, a := range actions {
		switch a {
		case ActSplit:
			wantBirths++
		case ActDie:
			wantDeaths++
		}
	}
	births, deaths := f.pop.Apply(actions)
	f.states = ReplayApply(f.states, actions, func(parent agent.State) agent.State { return parent })
	f.vals = ReplayApply(f.vals, actions, func(parent int) int { return parent })
	f.pts = ReplayApply(f.pts, actions, func(parent Point) Point {
		return Point{X: parent.X + f.src.Float64(), Y: parent.Y}
	})
	if births != wantBirths || deaths != wantDeaths {
		return fmt.Errorf("Apply reported (%d births, %d deaths), actions hold (%d, %d)",
			births, deaths, wantBirths, wantDeaths)
	}
	return nil
}

// check compares the population and both trackers with the reference,
// element for element.
func (f *applyFixture) check() error {
	if err := f.pop.CheckAligned(); err != nil {
		return err
	}
	if !slices.Equal(f.pop.States(), f.states) {
		return fmt.Errorf("states differ from ReplayApply (len %d vs %d)", f.pop.Len(), len(f.states))
	}
	if !slices.Equal(f.ints.vals, f.vals) {
		return fmt.Errorf("int side-array differs from ReplayApply (len %d vs %d)", len(f.ints.vals), len(f.vals))
	}
	if !slices.Equal(f.pos.Slice(), f.pts) {
		return fmt.Errorf("positions differ from ReplayApply (len %d vs %d)", f.pos.Len(), len(f.pts))
	}
	return nil
}

// distinctStates returns n states that differ in their Round field, so a
// misplaced survivor or daughter shows in the comparison.
func distinctStates(n int) []agent.State {
	s := make([]agent.State, n)
	for i := range s {
		s[i] = agent.State{Round: uint32(i * 3)}
	}
	return s
}

// checkApplyMatchesReplay applies one action array to a fresh fixture and
// compares the result with ReplayApply.
func checkApplyMatchesReplay(t *testing.T, actions []Action) {
	t.Helper()
	f := newApplyFixture(distinctStates(len(actions)), 42)
	if err := f.apply(actions); err != nil {
		t.Fatalf("n=%d: %v", len(actions), err)
	}
	if err := f.check(); err != nil {
		t.Fatalf("n=%d: %v", len(actions), err)
	}
}

// TestApplyMatchesReplayApply draws random action arrays over a range of
// sizes and checks that Apply reproduces ReplayApply's layout element for
// element, over the state array, a copy-spawn side-array and a Positions
// whose Spawn consumes a serial stream.
func TestApplyMatchesReplayApply(t *testing.T) {
	src := prng.New(7)
	for _, n := range []int{0, 1, 2, 3, 17, 100, 1000, 8192, 30000} {
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
			checkApplyMatchesReplay(t, actions)
		}
	}
}

// TestApplyPlanExtremes pins the all-die, all-split, and all-keep rounds —
// the boundary layouts (empty output, doubled output, identity) — applied
// w times in a row, so later rounds run on the arrays the earlier ones
// compacted or grew (an emptied population takes empty rounds). The start
// size halves as w grows, so an all-split run ends at 40000 agents. The
// test and its case names are kept from when w counted the workers of the
// sharded apply plan.
func TestApplyPlanExtremes(t *testing.T) {
	for _, w := range []int{1, 2, 3, 8} {
		for _, tc := range []struct {
			name string
			act  Action
		}{{"all-die", ActDie}, {"all-split", ActSplit}, {"all-keep", ActKeep}} {
			t.Run(fmt.Sprintf("%s/w%d", tc.name, w), func(t *testing.T) {
				f := newApplyFixture(distinctStates(20000>>(w-1)), 42)
				for round := 0; round < w; round++ {
					actions := make([]Action, f.pop.Len())
					for i := range actions {
						actions[i] = tc.act
					}
					if err := f.apply(actions); err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
					if err := f.check(); err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
				}
			})
		}
	}
}

// TestApplyWithInterleavedTrackers evolves a population with both trackers
// attached, over rounds of Apply interleaved with insertions and
// swap-deletions, and checks every tracker stays aligned with the
// ReplayApply reference after each step.
func TestApplyWithInterleavedTrackers(t *testing.T) {
	const n = 9000
	f := newApplyFixture(distinctStates(n), 99)

	actSrc := prng.New(5)
	for round := 0; round < 20; round++ {
		actions := make([]Action, f.pop.Len())
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
		if err := f.apply(actions); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for k := 0; k < 3; k++ {
			f.insert(agent.State{Round: uint32(round)})
			f.deleteSwap(int(actSrc.Uint64() % uint64(f.pop.Len())))
		}
		if err := f.check(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestApplyAllocatesNothing gates Apply's steady state exactly: on a warmed
// population of 2¹⁵ with Positions and an int side-array attached, a round
// with one death and one split allocates nothing.
func TestApplyAllocatesNothing(t *testing.T) {
	const n = 1 << 15
	f := newApplyFixture(make([]agent.State, n), 1)
	actions := make([]Action, n)
	actions[n/3] = ActDie
	actions[2*n/3] = ActSplit
	f.pop.Apply(actions)
	if allocs := testing.AllocsPerRun(100, func() { f.pop.Apply(actions) }); allocs != 0 {
		t.Fatalf("Apply allocated %v times per call, want 0", allocs)
	}
}

// maxFuzzPop bounds the population FuzzApply grows: above it, splits turn
// into keeps.
const maxFuzzPop = 512

// FuzzApply drives a population and its trackers through an op sequence —
// insert, swap-delete and Apply — and requires the state array and both
// trackers to equal the ReplayApply reference after every Apply and at the
// end. ops[0] sets
// the initial size; each later byte is one op: byte%4 selects insert (0),
// swap-delete (1) or Apply (2, 3). An Apply draws its actions from a
// stream keyed by the byte and its offset; the byte's high bits set the
// death share (0–8 of 8) and the split share (0–7 of 8).
func FuzzApply(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		fx := newApplyFixture(distinctStates(int(ops[0])), 3)
		for k, op := range ops[1:] {
			switch op % 4 {
			case 0:
				fx.insert(agent.State{Round: uint32(op)})
			case 1:
				if fx.pop.Len() > 0 {
					fx.deleteSwap(int(op/4) % fx.pop.Len())
				}
			default:
				die, split := uint64(op>>2)%9, uint64(op>>5)
				src := prng.New(uint64(op)<<32 | uint64(k))
				actions := make([]Action, fx.pop.Len())
				for i := range actions {
					switch r := src.Uint64() % 8; {
					case r < die:
						actions[i] = ActDie
					case r < die+split && len(actions) < maxFuzzPop:
						actions[i] = ActSplit
					}
				}
				if err := fx.apply(actions); err != nil {
					t.Fatalf("op %d: %v", k+1, err)
				}
				if err := fx.check(); err != nil {
					t.Fatalf("op %d (byte %d): %v", k+1, op, err)
				}
			}
		}
		if err := fx.check(); err != nil {
			t.Fatalf("after %d ops: %v", len(ops)-1, err)
		}
	})
}

// intTracker is a minimal side-array: each slot holds a unique id assigned
// at attach/insert, daughters copy the parent.
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
func (tr *intTracker) Applied(actions []Action) {
	tr.vals, _ = Compact(tr.vals, actions, func(parent int) int { return parent })
}
