package adversary

import (
	"math"
	"testing"

	"popstab/internal/agent"
	"popstab/internal/match"
	"popstab/internal/population"
	"popstab/internal/prng"
)

// spatialView is fakeView plus a 1-D ring space, for testing the
// position-aware seam without an engine.
type spatialView struct {
	*fakeView
	pos []population.Point
}

var _ View = (*spatialView)(nil)

func (f *spatialView) HasSpace() bool             { return true }
func (f *spatialView) Pos(i int) population.Point { return f.pos[i] }
func (f *spatialView) PatchPoint(center population.Point, r float64, src *prng.Source) population.Point {
	x := center.X + (2*src.Float64()-1)*r
	x = math.Mod(x, 1)
	if x < 0 {
		x++
	}
	return population.Point{X: x}
}

// ringView builds n agents evenly spaced on the circle: agent i at i/n.
func ringView(t *testing.T, n int) *spatialView {
	t.Helper()
	v := &spatialView{fakeView: testView(t, n), pos: make([]population.Point, n)}
	for i := range v.pos {
		v.pos[i] = population.Point{X: float64(i) / float64(n)}
	}
	return v
}

// spatialBudget binds a Budget to the view's space.
func spatialBudget(k int, v *spatialView) *Budget {
	b := NewBudget(k, len(v.pos), v.p.T)
	b.BindSpace(v.pos, match.RingDist2)
	return b
}

func TestBudgetDeleteNearNearestFirst(t *testing.T) {
	v := ringView(t, 100) // agents at 0.00, 0.01, ..., 0.99
	b := spatialBudget(3, v)
	// Ball of radius 0.025 around 0.50 holds agents 48..52; the 3 nearest
	// are 50, 49 (0.01, tie broken by index against 51), 51.
	got := b.DeleteNear(population.Point{X: 0.50}, 0.025, -1)
	if got != 3 {
		t.Fatalf("DeleteNear marked %d, want 3", got)
	}
	want := map[int]bool{49: true, 50: true, 51: true}
	for _, i := range b.Deletions() {
		if !want[i] {
			t.Errorf("DeleteNear marked %d, want the 3 nearest {49,50,51}", i)
		}
	}
}

func TestBudgetDeleteNearRespectsBudgetAndLimit(t *testing.T) {
	v := ringView(t, 100)
	b := spatialBudget(10, v)
	if got := b.DeleteNear(population.Point{X: 0.5}, 0.02, 2); got != 2 {
		t.Errorf("limit 2: marked %d", got)
	}
	// Whole-circle ball: only the remaining budget may be spent.
	if got := b.DeleteNear(population.Point{X: 0.5}, 1, -1); got != 8 {
		t.Errorf("budget-capped: marked %d, want 8", got)
	}
	if b.Remaining() != 0 {
		t.Errorf("Remaining = %d", b.Remaining())
	}
	// Exhausted budget: nothing more.
	if got := b.DeleteNear(population.Point{X: 0.5}, 1, -1); got != 0 {
		t.Errorf("exhausted: marked %d", got)
	}
}

func TestBudgetDeleteNearSkipsMarked(t *testing.T) {
	v := ringView(t, 100)
	b := spatialBudget(4, v)
	if !b.Delete(50) {
		t.Fatal("plain delete failed")
	}
	// 50 is already marked, so the ball's nearest unmarked agents win.
	if got := b.DeleteNear(population.Point{X: 0.50}, 0.025, -1); got != 3 {
		t.Fatalf("marked %d, want 3", got)
	}
	seen := map[int]int{}
	for _, i := range b.Deletions() {
		seen[i]++
	}
	if seen[50] != 1 || len(seen) != 4 {
		t.Errorf("deletions %v: want 50 once plus 3 distinct near neighbors", b.Deletions())
	}
}

func TestBudgetDeleteNearWithoutSpace(t *testing.T) {
	b := NewBudget(5, 100, 144)
	if got := b.DeleteNear(population.Point{X: 0.5}, 1, -1); got != 0 {
		t.Errorf("unbound DeleteNear marked %d", got)
	}
	if b.Used() != 0 {
		t.Error("unbound DeleteNear consumed budget")
	}
}

func TestBudgetInsertAt(t *testing.T) {
	v := ringView(t, 10)
	b := spatialBudget(2, v)
	pt := population.Point{X: 0.25}
	if !b.InsertAt(agent.State{Round: 1000}, pt) {
		t.Fatal("InsertAt rejected within budget")
	}
	ins := b.Inserts()
	if len(ins) != 1 || !ins[0].Placed || ins[0].At != pt {
		t.Fatalf("staged insertion %+v, want placed at %v", ins, pt)
	}
	if int(ins[0].State.Round) >= v.p.T {
		t.Error("InsertAt skipped round sanitization")
	}
	// Unbound budget: the position is dropped, the insertion stays.
	b2 := NewBudget(1, 10, v.p.T)
	if !b2.InsertAt(agent.State{}, pt) {
		t.Fatal("unbound InsertAt rejected")
	}
	if b2.Inserts()[0].Placed {
		t.Error("unbound InsertAt staged a position")
	}
}

func TestCappedMutatorSpatialOps(t *testing.T) {
	v := ringView(t, 100)
	b := spatialBudget(10, v)
	c := &cappedMutator{m: b, cap: 3}
	if got := c.DeleteNear(population.Point{X: 0.5}, 1, -1); got != 3 {
		t.Errorf("capped DeleteNear marked %d, want cap 3", got)
	}
	if c.InsertAt(agent.State{}, population.Point{X: 0.1}) {
		t.Error("capped InsertAt exceeded cap")
	}
	if b.Used() != 3 {
		t.Errorf("inner budget used %d", b.Used())
	}
}

func TestPatchDeleterConcentrates(t *testing.T) {
	v := ringView(t, 100)
	d := NewPatchDeleter(population.Point{X: 0.50}, 0.03)
	b := spatialBudget(4, v)
	d.Act(v, b, prng.New(1))
	dels := b.Deletions()
	if len(dels) != 4 {
		t.Fatalf("patch deleter used %d of budget 4", len(dels))
	}
	for _, i := range dels {
		if match.RingDist2(v.pos[i], population.Point{X: 0.50}) > 0.03*0.03 {
			t.Errorf("victim %d outside the patch", i)
		}
	}
}

func TestPatchDeleterFallsBackWithoutSpace(t *testing.T) {
	v := testView(t, 50)
	d := NewPatchDeleter(population.Point{}, 0.1)
	b := NewBudget(5, 50, v.p.T)
	d.Act(v, b, prng.New(2))
	if got := len(b.Deletions()); got != 5 {
		t.Errorf("fallback deleted %d, want full budget 5", got)
	}
}

func TestClusterInserterPlacesInPatch(t *testing.T) {
	v := ringView(t, 10)
	v.round = 7
	in := NewClusterInserter(population.Point{X: 0.2}, 0.05, nil)
	b := spatialBudget(6, v)
	in.Act(v, b, prng.New(3))
	ins := b.Inserts()
	if len(ins) != 6 {
		t.Fatalf("cluster inserter staged %d, want 6", len(ins))
	}
	for _, i := range ins {
		if !i.Placed {
			t.Fatal("cluster insertion not placed")
		}
		if match.RingDist2(i.At, population.Point{X: 0.2}) > 0.05*0.05 {
			t.Errorf("insertion at %v outside the patch", i.At)
		}
		if s := i.State; !s.Active || !s.Recruiting || s.Round != 7 {
			t.Errorf("default cluster state %+v, want a recruiting leader at the current round", s)
		}
	}
}

func TestRewireAdversaryMode(t *testing.T) {
	sw, err := match.NewSmallWorld(0.001, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ra := NewRewireDenier(population.Point{X: 0.5}, 0.1)
	ra.BindMatcher(sw)
	if got := ra.Mode(0, population.Point{X: 0.55}); got != match.RewireDeny {
		t.Errorf("inside patch: mode %v", got)
	}
	if got := ra.Mode(1, population.Point{X: 0.9}); got != match.RewireDefault {
		t.Errorf("outside patch: mode %v", got)
	}
	all := NewRewireDenier(population.Point{}, -1)
	all.BindMatcher(sw)
	if got := all.Mode(2, population.Point{X: 0.3}); got != match.RewireDeny {
		t.Errorf("deny-all: mode %v", got)
	}
	// Binding to a non-SmallWorld matcher leaves the strategy inert (no
	// panic, no controller installed).
	tor, err := match.NewTorus(0.01)
	if err != nil {
		t.Fatal(err)
	}
	NewRewireDenier(population.Point{}, 0.1).BindMatcher(tor)
}

func TestSpatialStrategyNames(t *testing.T) {
	for _, tc := range []struct {
		adv  Adversary
		want string
	}{
		{NewPatchDeleter(population.Point{}, 0.05), "delete-patch(r=0.05)"},
		{NewClusterInserter(population.Point{}, 0.05, nil), "insert-cluster(r=0.05)"},
		{NewRewireDenier(population.Point{}, 0.05), "rewire-deny(r=0.05)"},
		{NewRewireDenier(population.Point{}, -1), "rewire-deny-all"},
	} {
		if got := tc.adv.Name(); got != tc.want {
			t.Errorf("Name = %q, want %q", got, tc.want)
		}
	}
}

// TestPatchComboSplitsBudget pins the starvation fix: with K > 1 both
// halves act every round (the favored half capped at half the budget,
// rounded up), and with K = 1 the favor alternates across activations so
// paced budgets serve deletion and insertion in turn.
func TestPatchComboSplitsBudget(t *testing.T) {
	center := population.Point{X: 0.5}
	combo := NewPatchCombo(center, 0.1, nil)
	v := ringView(t, 100)
	b := spatialBudget(4, v)
	combo.Act(v, b, prng.New(1))
	if del, ins := len(b.Deletions()), len(b.Inserts()); del != 2 || ins != 2 {
		t.Errorf("turn 0 at K=4: %d deletions, %d insertions; want 2+2", del, ins)
	}

	// K = 1: activations alternate deleter-first, inserter-first, ...
	combo = NewPatchCombo(center, 0.1, nil)
	var dels, inss []int
	for i := 0; i < 4; i++ {
		b := spatialBudget(1, v)
		combo.Act(v, b, prng.New(uint64(i)))
		dels = append(dels, len(b.Deletions()))
		inss = append(inss, len(b.Inserts()))
	}
	for i := 0; i < 4; i++ {
		wantDel, wantIns := 1, 0
		if i%2 == 1 {
			wantDel, wantIns = 0, 1
		}
		if dels[i] != wantDel || inss[i] != wantIns {
			t.Errorf("K=1 turn %d: del=%d ins=%d, want del=%d ins=%d", i, dels[i], inss[i], wantDel, wantIns)
		}
	}
	if combo.Name() != "patch-combo(r=0.1)" {
		t.Errorf("Name = %q", combo.Name())
	}
}

// TestPatchComboLeftoverReassigned pins the leftover rule: when the favored
// deleter finds an empty ball, the inserter takes the whole budget (and the
// final leftover pass has nothing to add).
func TestPatchComboLeftoverReassigned(t *testing.T) {
	v := ringView(t, 100)
	// A ball around 0.5 that the deleter empties in one pre-pass.
	combo := NewPatchCombo(population.Point{X: 0.505}, 0.011, nil)
	pre := spatialBudget(100, v)
	if n := pre.DeleteNear(population.Point{X: 0.505}, 0.011, -1); n == 0 {
		t.Fatal("setup: ball empty before pre-pass")
	}
	// Simulate the emptied ball by moving every agent out of it.
	for i := range v.pos {
		v.pos[i] = population.Point{X: 0.1}
	}
	b := spatialBudget(4, v)
	combo.Act(v, b, prng.New(2))
	if del, ins := len(b.Deletions()), len(b.Inserts()); del != 0 || ins != 4 {
		t.Errorf("empty ball: del=%d ins=%d, want 0 deletions and the full budget inserted", del, ins)
	}
}
