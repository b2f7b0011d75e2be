package population

import (
	"testing"

	"popstab/internal/agent"
	"popstab/internal/prng"
	"popstab/internal/wire"
)

// newTestPositions attaches a Positions side-array with deterministic
// placement: Place draws uniformly from src, Spawn copies the parent.
func newTestPositions(p *Population, src *prng.Source) *Positions {
	ps := &Positions{
		Place: func() Point { return Point{X: src.Float64(), Y: src.Float64()} },
		Spawn: func(parent Point) Point { return parent },
	}
	p.Attach(ps)
	return ps
}

func TestPositionsAttachInitializes(t *testing.T) {
	p := New(7)
	ps := newTestPositions(p, prng.New(1))
	if ps.Len() != 7 {
		t.Fatalf("Len = %d after attach", ps.Len())
	}
	for i := 0; i < ps.Len(); i++ {
		pt := ps.At(i)
		if pt.X < 0 || pt.X >= 1 || pt.Y < 0 || pt.Y >= 1 {
			t.Fatalf("position %d out of unit square: %+v", i, pt)
		}
	}
}

func TestPositionsTrackInsertDelete(t *testing.T) {
	p := New(3)
	ps := newTestPositions(p, prng.New(2))
	p.Insert(agent.State{Round: 9})
	if ps.Len() != 4 {
		t.Fatalf("Len = %d after insert", ps.Len())
	}
	lastPos := ps.At(3)
	p.DeleteSwap(0)
	if ps.Len() != 3 {
		t.Fatalf("Len = %d after delete", ps.Len())
	}
	// Swap-delete must move the last position into slot 0, mirroring states.
	if ps.At(0) != lastPos {
		t.Errorf("slot 0 position %+v, want swapped-in %+v", ps.At(0), lastPos)
	}
	if p.State(0).Round != 9 {
		t.Errorf("state array did not swap as expected")
	}
}

// TestPositionsApplyMirrorsStates runs a mixed action vector and asserts
// positions stay aligned: survivors keep their position, daughters Spawn
// from their parent, in exactly the order Apply appends daughter states.
func TestPositionsApplyMirrorsStates(t *testing.T) {
	states := []agent.State{
		{Round: 0}, {Round: 1}, {Round: 2}, {Round: 3}, {Round: 4},
	}
	p := FromStates(states)
	marks := []Point{{0.0, 0}, {0.1, 0}, {0.2, 0}, {0.3, 0}, {0.4, 0}}
	i := 0
	ps := &Positions{
		Place: func() Point { pt := marks[i]; i++; return pt },
		Spawn: func(parent Point) Point { return Point{parent.X, parent.Y + 1} },
	}
	p.Attach(ps)

	actions := []Action{ActSplit, ActDie, ActKeep, ActSplit, ActDie}
	p.Apply(actions)
	if p.Len() != 5 || ps.Len() != 5 {
		t.Fatalf("len states=%d positions=%d, want 5", p.Len(), ps.Len())
	}
	// Survivors: original slots 0, 2, 3 keep their marks.
	for slot, want := range []Point{{0.0, 0}, {0.2, 0}, {0.3, 0}} {
		if ps.At(slot) != want {
			t.Errorf("survivor slot %d position %+v, want %+v", slot, ps.At(slot), want)
		}
	}
	// Daughters of parents 0 and 3, spawned in split order.
	if ps.At(3) != (Point{0.0, 1}) || ps.At(4) != (Point{0.3, 1}) {
		t.Errorf("daughter positions %+v, %+v", ps.At(3), ps.At(4))
	}
	if p.State(3).Round != 0 || p.State(4).Round != 3 {
		t.Errorf("daughter states misaligned with positions")
	}
}

// TestPositionsForceResize exercises the tracker through ForceResize's
// delete/insert composition.
func TestPositionsForceResize(t *testing.T) {
	p := New(10)
	ps := newTestPositions(p, prng.New(3))
	p.ForceResize(4, 0)
	if ps.Len() != 4 {
		t.Fatalf("Len = %d after shrink", ps.Len())
	}
	p.ForceResize(9, 2)
	if ps.Len() != 9 {
		t.Fatalf("Len = %d after grow", ps.Len())
	}
}

// TestPositionsRandomizedAlignment is a property test: under a random
// sequence of inserts, swap-deletes and Apply passes, the side-array length
// always equals the population length.
func TestPositionsRandomizedAlignment(t *testing.T) {
	src := prng.New(99)
	p := New(32)
	ps := newTestPositions(p, prng.New(100))
	for step := 0; step < 500; step++ {
		switch src.Intn(3) {
		case 0:
			p.Insert(agent.State{})
		case 1:
			if p.Len() > 0 {
				p.DeleteSwap(src.Intn(p.Len()))
			}
		default:
			actions := make([]Action, p.Len())
			for i := range actions {
				actions[i] = Action(src.Intn(3))
			}
			p.Apply(actions)
		}
		if ps.Len() != p.Len() {
			t.Fatalf("step %d: positions %d != population %d", step, ps.Len(), p.Len())
		}
	}
}

// TestPositionsReplayApplyInterleaved is a fuzz-style table test of the
// tracker invariants under ReplayApply interleaved with inserts and
// swap-deletes. The Spawn closure offsets every daughter by exactly σ =
// 0.5 — half the torus width, the wraparound watershed — so each daughter
// position also doubles as a parent back-pointer: the wrapped distance to
// its parent must be exactly 0.5 from either direction, and the X
// fractional part identifies the lineage. Each table row drives a scripted
// op sequence; a trailing randomized soak covers the gaps.
func TestPositionsReplayApplyInterleaved(t *testing.T) {
	const half = 0.5 // σ = half the torus width: |x − (x+σ)| wraps to σ exactly

	// wrapDist is the 1-D wrapped distance on the unit torus.
	wrapDist := func(a, b float64) float64 {
		d := a - b
		if d < 0 {
			d = -d
		}
		if d > 0.5 {
			d = 1 - d
		}
		return d
	}

	type op struct {
		kind    string // "insert", "delete", "apply"
		at      int    // delete index (mod current length)
		actions []Action
	}
	cases := []struct {
		name string
		n    int
		ops  []op
	}{
		{"split-then-delete-parent", 4, []op{
			{kind: "apply", actions: []Action{ActSplit, ActKeep, ActKeep, ActKeep}},
			{kind: "delete", at: 0},
			{kind: "apply", actions: []Action{ActKeep, ActKeep, ActKeep, ActSplit}},
		}},
		{"interleave-all-three", 5, []op{
			{kind: "insert"},
			{kind: "apply", actions: []Action{ActDie, ActSplit, ActKeep, ActSplit, ActDie, ActKeep}},
			{kind: "delete", at: 2},
			{kind: "insert"},
			{kind: "apply", actions: []Action{ActSplit, ActDie, ActSplit, ActKeep, ActDie, ActKeep}},
		}},
		{"mass-death-then-rebuild", 6, []op{
			{kind: "apply", actions: []Action{ActDie, ActDie, ActDie, ActDie, ActDie, ActKeep}},
			{kind: "insert"},
			{kind: "insert"},
			{kind: "apply", actions: []Action{ActSplit, ActSplit, ActSplit}},
		}},
		{"all-split", 3, []op{
			{kind: "apply", actions: []Action{ActSplit, ActSplit, ActSplit}},
			{kind: "apply", actions: []Action{ActSplit, ActSplit, ActSplit, ActSplit, ActSplit, ActSplit}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := New(tc.n)
			placeSrc := prng.New(17)
			ps := &Positions{
				// Fresh agents land at distinct dyadic X (multiples of
				// 2⁻²⁰, so adding the power-of-two σ = 0.5 and wrapping
				// stay exact in float64; Y marks them as roots).
				Place: func() Point { return Point{X: float64(placeSrc.Intn(1<<20)) / (1 << 20), Y: 0} },
				// Daughters sit exactly half the torus width from their
				// parent; Y counts generations.
				Spawn: func(parent Point) Point {
					x := parent.X + half
					if x >= 1 {
						x -= 1
					}
					return Point{X: x, Y: parent.Y + 1}
				},
			}
			p.Attach(ps)
			// parents snapshots the pre-Apply position of every agent so
			// daughter lineage is checkable after the compaction.
			for _, o := range tc.ops {
				switch o.kind {
				case "insert":
					p.Insert(agent.State{})
				case "delete":
					if p.Len() > 0 {
						p.DeleteSwap(o.at % p.Len())
					}
				case "apply":
					if len(o.actions) != p.Len() {
						t.Fatalf("table bug: %d actions for %d agents", len(o.actions), p.Len())
					}
					before := make([]Point, ps.Len())
					copy(before, ps.pos)
					p.Apply(o.actions)
					// Reconstruct the expected layout with ReplayApply
					// over the snapshot and compare elementwise.
					want := ReplayApply(before, o.actions, func(parent Point) Point {
						x := parent.X + half
						if x >= 1 {
							x -= 1
						}
						return Point{X: x, Y: parent.Y + 1}
					})
					if len(want) != ps.Len() {
						t.Fatalf("ReplayApply length %d != tracker %d", len(want), ps.Len())
					}
					for i := range want {
						if ps.At(i) != want[i] {
							t.Fatalf("slot %d: %+v, want %+v", i, ps.At(i), want[i])
						}
					}
					// Wraparound edge: every daughter (Y ≥ 1) sits at
					// wrapped distance exactly σ = 0.5 from its parent's
					// X — the distance is the same measured either way
					// around, and floating point must not drift it.
					survivors := 0
					for _, a := range o.actions {
						if a != ActDie {
							survivors++
						}
					}
					di := survivors
					r := 0
					for _, a := range o.actions {
						if a == ActDie {
							continue
						}
						if a == ActSplit {
							parent := ps.At(r)
							daughter := ps.At(di)
							if d := wrapDist(parent.X, daughter.X); d != half {
								t.Fatalf("daughter %d at wrapped distance %v from parent, want exactly %v",
									di, d, half)
							}
							if d := wrapDist(daughter.X, parent.X); d != half {
								t.Fatalf("wrap distance asymmetric at σ = half width")
							}
							di++
						}
						r++
					}
				}
				if ps.Len() != p.Len() {
					t.Fatalf("tracker desynced: positions %d != population %d", ps.Len(), p.Len())
				}
			}
		})
	}

	// Randomized soak: 300 random interleavings preserve alignment and the
	// half-width lineage invariant for every daughter born along the way.
	t.Run("soak", func(t *testing.T) {
		src := prng.New(99)
		placeSrc := prng.New(100)
		p := New(16)
		ps := &Positions{
			Place: func() Point { return Point{X: float64(placeSrc.Intn(1<<20)) / (1 << 20), Y: 0} },
			Spawn: func(parent Point) Point {
				x := parent.X + half
				if x >= 1 {
					x -= 1
				}
				return Point{X: x, Y: parent.Y + 1}
			},
		}
		p.Attach(ps)
		for step := 0; step < 300; step++ {
			switch src.Intn(3) {
			case 0:
				p.Insert(agent.State{})
			case 1:
				if p.Len() > 0 {
					p.DeleteSwap(src.Intn(p.Len()))
				}
			default:
				actions := make([]Action, p.Len())
				for i := range actions {
					actions[i] = Action(src.Intn(3))
				}
				before := make([]Point, ps.Len())
				copy(before, ps.pos)
				p.Apply(actions)
				want := ReplayApply(before, actions, func(parent Point) Point {
					x := parent.X + half
					if x >= 1 {
						x -= 1
					}
					return Point{X: x, Y: parent.Y + 1}
				})
				for i := range want {
					if ps.At(i) != want[i] {
						t.Fatalf("step %d slot %d: %+v, want %+v", step, i, ps.At(i), want[i])
					}
				}
			}
			if ps.Len() != p.Len() {
				t.Fatalf("step %d: positions %d != population %d", step, ps.Len(), p.Len())
			}
			for i := 0; i < ps.Len(); i++ {
				if pt := ps.At(i); pt.X < 0 || pt.X >= 1 {
					t.Fatalf("step %d: position %d out of the unit torus: %+v", step, i, pt)
				}
			}
		}
	})
}

// TestPlacementQueueAndSetAt pins the placement seams: queued one-shot
// placements win over the ambient Place func (FIFO), and SetAt re-places in
// place.
func TestPlacementQueueAndSetAt(t *testing.T) {
	ambient := Point{X: 0.111}
	ps := &Positions{
		Place: func() Point { return ambient },
		Spawn: func(parent Point) Point { return parent },
	}
	p := New(3)
	p.Attach(ps)
	for i := 0; i < 3; i++ {
		if ps.At(i) != ambient {
			t.Fatalf("initial placement %v, want ambient %v", ps.At(i), ambient)
		}
	}

	// Queued placements are consumed FIFO ahead of the ambient Place.
	a, b := Point{X: 0.25}, Point{X: 0.75}
	ps.QueuePlacement(a)
	ps.QueuePlacement(b)
	i1 := p.Insert(agent.State{})
	i2 := p.Insert(agent.State{})
	i3 := p.Insert(agent.State{})
	if ps.At(i1) != a || ps.At(i2) != b {
		t.Errorf("queued placements out of order: %v, %v", ps.At(i1), ps.At(i2))
	}
	if ps.At(i3) != ambient {
		t.Errorf("post-queue insert %v, want ambient", ps.At(i3))
	}

	// SetAt re-places an existing agent.
	ps.SetAt(0, Point{X: 0.9})
	if ps.At(0) != (Point{X: 0.9}) {
		t.Error("SetAt did not overwrite")
	}
}

// TestPositionsVersion pins which writes bump Version: attaching, inserting,
// swap-deleting, SetAt (even of an unchanged point), restoring, and an Apply
// with a birth or a death, but not an Apply in which every agent keeps, nor
// a queued placement that has not been inserted yet.
func TestPositionsVersion(t *testing.T) {
	p := New(4)
	ps := newTestPositions(p, prng.New(3))
	v := ps.Version()
	if v == 0 {
		t.Fatal("Attach left Version at 0")
	}
	step := func(what string, bumps bool, op func()) {
		t.Helper()
		op()
		if got := ps.Version(); (got != v) != bumps {
			t.Fatalf("%s: Version %d -> %d, want a bump: %v", what, v, got, bumps)
		}
		v = ps.Version()
	}
	step("Insert", true, func() { p.Insert(agent.State{}) })
	step("DeleteSwap", true, func() { p.DeleteSwap(1) })
	step("SetAt", true, func() { ps.SetAt(0, ps.At(0)) })
	step("QueuePlacement", false, func() { ps.QueuePlacement(Point{X: 0.5}) })
	step("Insert of the queued point", true, func() { p.Insert(agent.State{}) })
	step("Apply, all keep", false, func() { p.Apply(make([]Action, p.Len())) })
	step("Apply, one split", true, func() {
		acts := make([]Action, p.Len())
		acts[2] = ActSplit
		p.Apply(acts)
	})
	step("Apply, one death", true, func() {
		acts := make([]Action, p.Len())
		acts[0] = ActDie
		p.Apply(acts)
	})
	step("Apply, one death and one split", true, func() {
		acts := make([]Action, p.Len())
		acts[0], acts[1] = ActDie, ActSplit
		p.Apply(acts)
	})
	e := wire.NewEnc()
	e.Begin(1)
	ps.EncodeState(e)
	e.End()
	blob := e.Finish()
	step("DecodeState", true, func() {
		d, err := wire.NewDec(blob)
		if err != nil {
			t.Fatal(err)
		}
		d.Begin(1)
		if err := ps.DecodeState(d); err != nil {
			t.Fatal(err)
		}
	})
}
