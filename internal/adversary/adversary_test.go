package adversary

import (
	"math"
	"strings"
	"testing"

	"popstab/internal/agent"
	"popstab/internal/params"
	"popstab/internal/population"
	"popstab/internal/prng"
)

// fakeView implements View over a plain state slice for strategy tests;
// Flatland supplies the position-blind spatial methods.
type fakeView struct {
	Flatland
	states []agent.State
	round  uint64
	p      params.Params
}

var _ View = (*fakeView)(nil)

func (f *fakeView) Len() int                { return len(f.states) }
func (f *fakeView) State(i int) agent.State { return f.states[i] }
func (f *fakeView) Census() population.Census {
	return population.FromStates(f.states).TakeCensus(f.p.T-1, f.p.HalfLogN)
}
func (f *fakeView) GlobalRound() uint64   { return f.round }
func (f *fakeView) EpochRound() int       { return int(f.round % uint64(f.p.T)) }
func (f *fakeView) Params() params.Params { return f.p }
func (f *fakeView) Find(dst []int, limit int, pred func(agent.State) bool) []int {
	for i, s := range f.states {
		if limit >= 0 && len(dst) >= limit {
			break
		}
		if pred(s) {
			dst = append(dst, i)
		}
	}
	return dst
}

func testView(t *testing.T, n int) *fakeView {
	t.Helper()
	p, err := params.Derive(4096, params.WithTinner(24))
	if err != nil {
		t.Fatal(err)
	}
	v := &fakeView{p: p, states: make([]agent.State, n)}
	return v
}

func TestBudgetEnforcesK(t *testing.T) {
	b := NewBudget(3, 100, 144)
	if !b.Delete(5) || !b.Delete(10) || !b.Insert(agent.State{}) {
		t.Fatal("operations within budget rejected")
	}
	if b.Remaining() != 0 {
		t.Fatalf("Remaining = %d", b.Remaining())
	}
	if b.Delete(20) {
		t.Error("Delete above budget accepted")
	}
	if b.Insert(agent.State{}) {
		t.Error("Insert above budget accepted")
	}
	if b.Used() != 3 {
		t.Errorf("Used = %d", b.Used())
	}
}

func TestBudgetRejectsDuplicateAndOutOfRange(t *testing.T) {
	b := NewBudget(5, 10, 144)
	if !b.Delete(3) {
		t.Fatal("first delete rejected")
	}
	if b.Delete(3) {
		t.Error("duplicate delete consumed budget")
	}
	if b.Delete(-1) || b.Delete(10) {
		t.Error("out-of-range delete accepted")
	}
	if b.Used() != 1 {
		t.Errorf("Used = %d after duplicates/range errors", b.Used())
	}
}

func TestBudgetSanitizesInsertedRound(t *testing.T) {
	b := NewBudget(1, 10, 144)
	b.Insert(agent.State{Round: 1000})
	ins := b.Inserts()
	if len(ins) != 1 || int(ins[0].State.Round) >= 144 {
		t.Errorf("inserted round not sanitized: %+v", ins)
	}
}

func TestBudgetDeletionsDescending(t *testing.T) {
	b := NewBudget(10, 100, 144)
	for _, i := range []int{7, 3, 99, 42} {
		b.Delete(i)
	}
	d := b.Deletions()
	for i := 1; i < len(d); i++ {
		if d[i] >= d[i-1] {
			t.Fatalf("Deletions not strictly descending: %v", d)
		}
	}
	if len(d) != 4 {
		t.Fatalf("Deletions = %v", d)
	}
}

func TestNoneDoesNothing(t *testing.T) {
	v := testView(t, 10)
	b := NewBudget(5, 10, v.p.T)
	None{}.Act(v, b, prng.New(1))
	if b.Used() != 0 {
		t.Error("None consumed budget")
	}
	if (None{}).Name() != "none" {
		t.Error("None name")
	}
}

func TestDeleterTargetsMatches(t *testing.T) {
	v := testView(t, 20)
	// Mark agents 4..7 active.
	for i := 4; i < 8; i++ {
		v.states[i].Active = true
	}
	d := NewLeaderKiller()
	b := NewBudget(10, 20, v.p.T)
	d.Act(v, b, prng.New(2))
	// Only the 4 active agents should be deleted despite budget 10.
	dels := b.Deletions()
	if len(dels) != 4 {
		t.Fatalf("deleted %d agents, want 4", len(dels))
	}
	for _, i := range dels {
		if !v.states[i].Active {
			t.Errorf("deleted inactive agent %d", i)
		}
	}
}

func TestDeleterRespectsBudget(t *testing.T) {
	v := testView(t, 100)
	d := NewRandomDeleter()
	b := NewBudget(7, 100, v.p.T)
	d.Act(v, b, prng.New(3))
	if got := len(b.Deletions()); got != 7 {
		t.Errorf("deleted %d, want exactly budget 7", got)
	}
}

func TestDeleterEmptyPopulation(t *testing.T) {
	v := testView(t, 0)
	NewRandomDeleter().Act(v, NewBudget(5, 0, v.p.T), prng.New(4))
}

func TestColorDeleter(t *testing.T) {
	v := testView(t, 10)
	v.states[1] = agent.State{Active: true, Color: 1}
	v.states[2] = agent.State{Active: true, Color: 0}
	v.states[3] = agent.State{Active: true, Color: 1}
	d := NewColorDeleter(1)
	b := NewBudget(10, 10, v.p.T)
	d.Act(v, b, prng.New(5))
	dels := b.Deletions()
	if len(dels) != 2 {
		t.Fatalf("deleted %v, want the two color-1 agents", dels)
	}
	for _, i := range dels {
		if v.states[i].Color != 1 {
			t.Errorf("deleted wrong color at %d", i)
		}
	}
}

func TestBenignInserterCorrectRound(t *testing.T) {
	v := testView(t, 10)
	v.round = 37
	in := NewBenignInserter()
	b := NewBudget(4, 10, v.p.T)
	in.Act(v, b, prng.New(6))
	ins := b.Inserts()
	if len(ins) != 4 {
		t.Fatalf("inserted %d, want 4", len(ins))
	}
	for _, ins := range ins {
		s := ins.State
		if s.Round != 37 || s.Active {
			t.Errorf("benign insert state %+v", s)
		}
	}
}

func TestWrongRoundInserterOffset(t *testing.T) {
	v := testView(t, 10)
	v.round = 10
	in := NewWrongRoundInserter(5)
	b := NewBudget(2, 10, v.p.T)
	in.Act(v, b, prng.New(7))
	for _, ins := range b.Inserts() {
		s := ins.State
		if s.Round != 15 {
			t.Errorf("inserted round %d, want 15", s.Round)
		}
	}
	// Negative offsets wrap.
	v.round = 2
	in2 := NewWrongRoundInserter(-5)
	b2 := NewBudget(1, 10, v.p.T)
	in2.Act(v, b2, prng.New(8))
	if got := int(b2.Inserts()[0].State.Round); got != v.p.T-3 {
		t.Errorf("wrapped round %d, want %d", got, v.p.T-3)
	}
}

func TestEvalFlooder(t *testing.T) {
	v := testView(t, 10)
	in := NewEvalFlooder()
	b := NewBudget(3, 10, v.p.T)
	in.Act(v, b, prng.New(9))
	for _, ins := range b.Inserts() {
		s := ins.State
		if int(s.Round) != v.p.T-1 || !s.Active {
			t.Errorf("eval-flood state %+v", s)
		}
	}
}

func TestFakeLeaderInserter(t *testing.T) {
	v := testView(t, 10)
	v.round = 1
	in := NewFakeLeaderInserter(0)
	b := NewBudget(2, 10, v.p.T)
	in.Act(v, b, prng.New(10))
	for _, ins := range b.Inserts() {
		s := ins.State
		if !s.Active || !s.Recruiting || s.Color != 0 || int(s.ToRecruit) != v.p.HalfLogN {
			t.Errorf("fake leader state %+v", s)
		}
	}
}

func TestSingletonInserter(t *testing.T) {
	v := testView(t, 10)
	in := NewSingletonInserter()
	b := NewBudget(8, 10, v.p.T)
	in.Act(v, b, prng.New(11))
	colors := [2]int{}
	for _, ins := range b.Inserts() {
		s := ins.State
		if !s.Active || s.Recruiting || s.ToRecruit != 0 {
			t.Errorf("singleton state %+v", s)
		}
		colors[s.Color]++
	}
	if colors[0] == 0 && colors[1] == 0 {
		t.Error("no singletons inserted")
	}
}

func TestCompositeSharesBudget(t *testing.T) {
	v := testView(t, 10)
	c := NewComposite("combo", NewBenignInserter(), NewBenignInserter())
	b := NewBudget(3, 10, v.p.T)
	c.Act(v, b, prng.New(12))
	if len(b.Inserts()) != 3 {
		t.Errorf("composite inserted %d, want exactly budget 3", len(b.Inserts()))
	}
	if c.Name() != "combo" {
		t.Errorf("Name = %q", c.Name())
	}
	unnamed := NewComposite("", NewBenignInserter(), NewRandomDeleter())
	if !strings.Contains(unnamed.Name(), "+") {
		t.Errorf("derived name = %q", unnamed.Name())
	}
}

func TestAlternatorSwitchesPhases(t *testing.T) {
	v := testView(t, 10)
	a := &Alternator{Period: 10, A: NewBenignInserter(), B: NewRandomDeleter()}
	src := prng.New(13)

	v.round = 5 // phase 0
	b := NewBudget(2, 10, v.p.T)
	a.Act(v, b, src)
	if len(b.Inserts()) != 2 || len(b.Deletions()) != 0 {
		t.Errorf("phase A: ins=%d del=%d", len(b.Inserts()), len(b.Deletions()))
	}

	v.round = 15 // phase 1
	b = NewBudget(2, 10, v.p.T)
	a.Act(v, b, src)
	if len(b.Deletions()) != 2 || len(b.Inserts()) != 0 {
		t.Errorf("phase B: ins=%d del=%d", len(b.Inserts()), len(b.Deletions()))
	}
}

func TestColorSkewerUp(t *testing.T) {
	v := testView(t, 20)
	for i := 0; i < 6; i++ {
		v.states[i] = agent.State{Active: true, Color: 1}
	}
	cs := NewColorSkewer(true)
	b := NewBudget(6, 20, v.p.T)
	cs.Act(v, b, prng.New(14))
	if len(b.Deletions()) == 0 {
		t.Error("skew-up deleted nothing")
	}
	for _, ins := range b.Inserts() {
		s := ins.State
		if s.Color != 0 || !s.Active {
			t.Errorf("skew-up inserted %+v, want color-0 leaders", s)
		}
	}
	if cs.Name() != "skew-up" {
		t.Error("name")
	}
}

func TestColorSkewerDown(t *testing.T) {
	v := testView(t, 20)
	cs := NewColorSkewer(false)
	b := NewBudget(4, 20, v.p.T)
	cs.Act(v, b, prng.New(15))
	if len(b.Inserts()) != 4 {
		t.Errorf("skew-down inserted %d", len(b.Inserts()))
	}
	if cs.Name() != "skew-down" {
		t.Error("name")
	}
}

func TestTraumaWindow(t *testing.T) {
	v := testView(t, 50)
	tr := NewTrauma(10, 5)
	src := prng.New(16)

	v.round = 9
	b := NewBudget(3, 50, v.p.T)
	tr.Act(v, b, src)
	if b.Used() != 0 {
		t.Error("trauma acted before window")
	}

	v.round = 12
	b = NewBudget(3, 50, v.p.T)
	tr.Act(v, b, src)
	if len(b.Deletions()) != 3 {
		t.Errorf("trauma deleted %d in window, want 3", len(b.Deletions()))
	}

	v.round = 15
	b = NewBudget(3, 50, v.p.T)
	tr.Act(v, b, src)
	if b.Used() != 0 {
		t.Error("trauma acted after window")
	}
}

func TestGreedyPushesAwayFromTarget(t *testing.T) {
	src := prng.New(17)
	g := NewGreedy()

	// Above target: should push up (inserts color-0 leaders / deletes color-1).
	v := testView(t, 10)
	big := &fakeView{p: v.p, states: make([]agent.State, v.p.N+100)}
	b := NewBudget(4, big.Len(), v.p.T)
	g.Act(big, b, src)
	if b.Used() == 0 {
		t.Error("greedy idle above target")
	}

	// Far below target: should push down / amplify deletions.
	small := &fakeView{p: v.p, states: make([]agent.State, v.p.N/2)}
	b2 := NewBudget(4, small.Len(), v.p.T)
	g.Act(small, b2, src)
	if b2.Used() == 0 {
		t.Error("greedy idle below target")
	}
	if g.Name() != "greedy" {
		t.Error("name")
	}
}

func TestPacedThrottles(t *testing.T) {
	v := testView(t, 10)
	p := NewPaced(10, NewBenignInserter())
	src := prng.New(18)

	v.round = 0
	b := NewBudget(2, 10, v.p.T)
	p.Act(v, b, src)
	if b.Used() != 2 {
		t.Error("paced idle on period round")
	}

	v.round = 3
	b = NewBudget(2, 10, v.p.T)
	p.Act(v, b, src)
	if b.Used() != 0 {
		t.Error("paced acted off period")
	}

	if !strings.Contains(p.Name(), "every10") {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestNewPacedZeroPeriod(t *testing.T) {
	p := NewPaced(0, None{})
	if p.Every != 1 {
		t.Errorf("Every = %d, want 1", p.Every)
	}
}

func TestPerEpoch(t *testing.T) {
	cases := []struct {
		epochLen, perEpoch, k int
		want                  uint64
	}{
		{144, 8, 1, 18},  // 8 single alterations spread over 144 rounds
		{144, 8, 8, 144}, // one burst of 8 per epoch
		{144, 0, 1, 145}, // zero budget: never within the epoch
		{144, 288, 1, 1}, // more than one per round: act every round
		{2048, 16, 2, 256},
		// Extreme budgets must not overflow into a zero action count.
		{144, math.MaxInt, math.MaxInt, 144},
		{144, math.MaxInt, 2, 1},
	}
	for _, tc := range cases {
		if got := PerEpoch(tc.epochLen, tc.perEpoch, tc.k); got != tc.want {
			t.Errorf("PerEpoch(%d,%d,%d) = %d, want %d",
				tc.epochLen, tc.perEpoch, tc.k, got, tc.want)
		}
	}
}

func TestCappedMutator(t *testing.T) {
	b := NewBudget(10, 50, 144)
	c := &cappedMutator{m: b, cap: 2}
	if !c.Insert(agent.State{}) || !c.Delete(1) {
		t.Fatal("capped ops within cap rejected")
	}
	if c.Insert(agent.State{}) {
		t.Error("capped op above cap accepted")
	}
	if c.Remaining() != 0 {
		t.Errorf("Remaining = %d", c.Remaining())
	}
	if b.Used() != 2 {
		t.Errorf("outer budget used = %d", b.Used())
	}
}
