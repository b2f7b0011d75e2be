package baseline

import (
	"math"
	"testing"

	"popstab/internal/adversary"
	"popstab/internal/agent"
	"popstab/internal/params"
	"popstab/internal/population"
	"popstab/internal/prng"
	"popstab/internal/sim"
	"popstab/internal/wire"
)

func fastParams(t testing.TB) params.Params {
	t.Helper()
	p, err := params.Derive(4096, params.WithTinner(24))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// --- Attempt 1 ---

func TestAttempt1EpochStructure(t *testing.T) {
	a := MustNewAttempt1(fastParams(t))
	if a.EpochLen() != a.Repeats()*a.SubEpochLen()+1 {
		t.Errorf("EpochLen = %d, want repeats·subEpoch+1", a.EpochLen())
	}
	// The gossip window must exceed the OR-spread time log(N)/log(1+γ):
	// at N=4096, γ=0.25 that is ≈ 38 rounds.
	if a.SubEpochLen() < 39 {
		t.Errorf("SubEpochLen = %d: gossip window too short for full OR spread", a.SubEpochLen())
	}
	if _, err := NewAttempt1(params.Params{}); err == nil {
		t.Error("NewAttempt1 accepted zero params")
	}
}

func TestAttempt1CoinRound(t *testing.T) {
	p := fastParams(t)
	a := MustNewAttempt1(p)
	src := prng.New(1)
	leaders := 0
	const trials = 1 << 18
	for i := 0; i < trials; i++ {
		s := agent.State{Round: 0}
		a.Step(&s, wire.Message{}, false, src)
		if s.Color == 1 {
			leaders++
		}
	}
	want := float64(trials) / float64(p.N)
	sigma := math.Sqrt(want)
	if math.Abs(float64(leaders)-want) > 6*sigma+1 {
		t.Errorf("leader coin: %d of %d, want about %.0f", leaders, trials, want)
	}
}

func TestAttempt1GossipSpreads(t *testing.T) {
	a := MustNewAttempt1(fastParams(t))
	src := prng.New(2)
	s := agent.State{Round: 3}
	a.Step(&s, wire.Message{Active: true}, true, src)
	if !s.Active {
		t.Error("gossip bit not absorbed")
	}
	// Compose must now broadcast the bit.
	if a.Compose(&s) != 1 {
		t.Error("heard bit not broadcast")
	}
}

func TestAttempt1SubEpochCounting(t *testing.T) {
	a := MustNewAttempt1(fastParams(t))
	src := prng.New(2)
	// An agent that heard a leader must increment its counter in the final
	// gossip round of the sub-epoch.
	last := uint32(a.SubEpochLen() - 1)
	s := agent.State{Round: last, Active: true}
	a.Step(&s, wire.Message{}, false, src)
	if s.ToRecruit != 1 {
		t.Errorf("counter %d after heard sub-epoch, want 1", s.ToRecruit)
	}
	// A silent agent does not.
	s2 := agent.State{Round: last}
	a.Step(&s2, wire.Message{}, false, src)
	if s2.ToRecruit != 0 {
		t.Errorf("counter %d after silent sub-epoch, want 0", s2.ToRecruit)
	}
}

func TestAttempt1Decision(t *testing.T) {
	a := MustNewAttempt1(fastParams(t))
	src := prng.New(3)
	lastRound := uint32(a.EpochLen() - 1)

	// Count 0 (no sub-epoch heard a leader) → split w.p. pSplitMax = 0.3.
	splits := 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		s := agent.State{Round: lastRound}
		act := a.Step(&s, wire.Message{}, false, src)
		if act == population.ActSplit {
			splits++
		}
		if act == population.ActDie {
			t.Fatal("count 0 must never die")
		}
		if s.Round != 0 || s.Active || s.ToRecruit != 0 {
			t.Fatalf("state not reset: %+v", s)
		}
	}
	want := a.pSplitMax * trials
	sigma := math.Sqrt(trials * a.pSplitMax * (1 - a.pSplitMax))
	if math.Abs(float64(splits)-want) > 6*sigma {
		t.Errorf("splits %d, want about %.0f", splits, want)
	}

	// Full count → die w.p. pDieMax, never split.
	deaths := 0
	for i := 0; i < trials; i++ {
		s := agent.State{Round: lastRound, ToRecruit: int8(a.Repeats())}
		act := a.Step(&s, wire.Message{}, false, src)
		if act == population.ActSplit {
			t.Fatal("full count must never split")
		}
		if act == population.ActDie {
			deaths++
		}
	}
	want = a.pDieMax * trials
	sigma = math.Sqrt(trials * a.pDieMax * (1 - a.pDieMax))
	if math.Abs(float64(deaths)-want) > 6*sigma {
		t.Errorf("deaths %d, want about %.0f", deaths, want)
	}
}

// TestAttempt1StableWithoutAdversary: absent attacks, the amplified signal
// is strong (Θ(1) per epoch) and the population stays near N. Fail fast if
// it escapes a generous band, so a miscalibration cannot hang the suite.
func TestAttempt1StableWithoutAdversary(t *testing.T) {
	p := fastParams(t)
	a := MustNewAttempt1(p)
	e := sim.MustNew(sim.Config{Params: p, Protocol: sim.Lift(a), Seed: 4})
	for epoch := 0; epoch < 30; epoch++ {
		for i := 0; i < a.EpochLen(); i++ {
			e.RunRound()
		}
		if size := e.Size(); size < p.N/2 || size > 2*p.N {
			t.Fatalf("attempt 1 drifted to %d at epoch %d without adversary", size, epoch)
		}
	}
}

// TestAttempt1SuppressorCollapses is E9 direction one: a single inserted
// "heard=1" agent per epoch forces global death pressure.
func TestAttempt1SuppressorCollapses(t *testing.T) {
	p := fastParams(t)
	a := MustNewAttempt1(p)
	e := sim.MustNew(sim.Config{Params: p, Protocol: sim.Lift(a), Seed: 5, K: 1,
		Adversary: NewAttempt1Suppressor(a)})
	epochs := 0
	for e.Size() > p.N/2 && epochs < 40 {
		for i := 0; i < a.EpochLen(); i++ {
			e.RunRound()
		}
		epochs++
	}
	if e.Size() > p.N/2 {
		t.Errorf("suppressor failed: size %d after %d epochs", e.Size(), epochs)
	}
}

// TestAttempt1IgniterExplodes is E9 direction two: deleting the few
// coin=1 carriers every round makes every epoch silent, so everyone splits.
func TestAttempt1IgniterExplodes(t *testing.T) {
	p := fastParams(t)
	a := MustNewAttempt1(p)
	// Budget N^{1/4} per round is ample: carriers are ≈ m/N ≈ 1 expected.
	e := sim.MustNew(sim.Config{Params: p, Protocol: sim.Lift(a), Seed: 6, K: p.MaxTolerableK(),
		Adversary: NewAttempt1Igniter(a)})
	epochs := 0
	for e.Size() < 2*p.N && epochs < 20 {
		for i := 0; i < a.EpochLen(); i++ {
			e.RunRound()
		}
		epochs++
	}
	if e.Size() < 2*p.N {
		t.Errorf("igniter failed: size %d after %d epochs", e.Size(), epochs)
	}
}

// --- Attempt 2 ---

func TestAttempt2Window(t *testing.T) {
	p := fastParams(t)
	a := MustNewAttempt2(p)
	src := prng.New(7)

	s := agent.State{}
	// First encounter: record, no decision.
	if act := a.Step(&s, wire.Message{Color: 1}, true, src); act != population.ActKeep {
		t.Fatalf("first encounter acted: %v", act)
	}
	if s.ToRecruit != 1 || !s.Recruiting {
		t.Fatalf("first observation not recorded: %+v", s)
	}
	// Second encounter with mismatching color: die.
	if act := a.Step(&s, wire.Message{Color: 0}, true, src); act != population.ActDie {
		t.Fatalf("mismatched observations: want die")
	}
}

func TestAttempt2EqualObservationsSplit(t *testing.T) {
	p := fastParams(t)
	a := MustNewAttempt2(p)
	src := prng.New(8)
	splits, deaths := 0, 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		s := agent.State{}
		a.Step(&s, wire.Message{Color: 1}, true, src)
		switch a.Step(&s, wire.Message{Color: 1}, true, src) {
		case population.ActSplit:
			splits++
		case population.ActDie:
			deaths++
		}
	}
	if deaths != 0 {
		t.Fatalf("%d deaths on equal observations", deaths)
	}
	want := (1 - 2/float64(p.N)) * trials
	if math.Abs(float64(splits)-want) > 6*math.Sqrt(float64(trials)*2/float64(p.N))+50 {
		t.Errorf("splits %d, want about %.0f", splits, want)
	}
}

func TestAttempt2UnmatchedRoundsDoNotCount(t *testing.T) {
	a := MustNewAttempt2(fastParams(t))
	src := prng.New(9)
	s := agent.State{}
	for i := 0; i < 10; i++ {
		if act := a.Step(&s, wire.Message{}, false, src); act != population.ActKeep {
			t.Fatalf("unmatched round acted: %v", act)
		}
	}
	if s.ToRecruit != 0 {
		t.Errorf("unmatched rounds advanced the window: %+v", s)
	}
}

// TestAttempt2RandomWalks is E10 at test scale: the population's drift from
// N over a fixed horizon is far larger for Attempt 2 than for a stable
// protocol. We assert the walk escapes a ±2% band that the main protocol
// comfortably holds over the same horizon (see sim tests).
func TestAttempt2RandomWalks(t *testing.T) {
	p := fastParams(t)
	a := MustNewAttempt2(p)
	maxDev := 0
	for seed := uint64(0); seed < 3; seed++ {
		e := sim.MustNew(sim.Config{Params: p, Protocol: sim.Lift(a), Seed: 10 + seed})
		for r := 0; r < 20*p.T; r++ {
			e.RunRound()
			dev := e.Size() - p.N
			if dev < 0 {
				dev = -dev
			}
			if dev > maxDev {
				maxDev = dev
			}
		}
	}
	if maxDev < p.N/50 {
		t.Errorf("attempt 2 max deviation %d over 20 epochs; expected random-walk excursions > %d",
			maxDev, p.N/50)
	}
}

// --- Empty ---

func TestEmptyNeverActs(t *testing.T) {
	var e Empty
	src := prng.New(11)
	s := agent.State{Round: 3, Active: true}
	if act := e.Step(&s, wire.Message{}, true, src); act != population.ActKeep {
		t.Errorf("empty protocol acted: %v", act)
	}
	if e.EpochLen() != 1 {
		t.Error("EpochLen")
	}
	if e.Compose(&s) != 0 {
		t.Error("Compose")
	}
	if (e.Decode(3) != wire.Message{}) {
		t.Error("Decode")
	}
}

func TestEmptyPopulationOnlyChangesViaAdversary(t *testing.T) {
	p := fastParams(t)
	e := sim.MustNew(sim.Config{Params: p, Protocol: sim.Lift(Empty{}), Seed: 12, K: 3,
		Adversary: adversary.NewRandomDeleter()})
	start := e.Size()
	rounds := 50
	for i := 0; i < rounds; i++ {
		e.RunRound()
	}
	if e.Size() != start-3*rounds {
		t.Errorf("size %d, want %d", e.Size(), start-3*rounds)
	}
}

// --- High memory ---

func TestHighMemoryValidation(t *testing.T) {
	if _, err := NewHighMemory(HighMemConfig{N: 1, Gamma: 0.5, Alpha: 0.5}); err == nil {
		t.Error("accepted N=1")
	}
	if _, err := NewHighMemory(HighMemConfig{N: 100, Gamma: 0, Alpha: 0.5}); err == nil {
		t.Error("accepted gamma=0")
	}
	if _, err := NewHighMemory(HighMemConfig{N: 100, Gamma: 0.5, Alpha: 2}); err == nil {
		t.Error("accepted alpha=2")
	}
}

func TestHighMemoryStableNoAdversary(t *testing.T) {
	h, err := NewHighMemory(HighMemConfig{N: 512, Gamma: 0.5, Alpha: 0.5, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < 10; epoch++ {
		h.RunEpoch()
		if h.Size() < 256 || h.Size() > 1024 {
			t.Fatalf("epoch %d: size %d", epoch, h.Size())
		}
	}
}

// TestHighMemoryRecoversFromDeletion is the E15 positive arm: with full
// counting, recovery from deletions is fast and accurate.
func TestHighMemoryRecoversFromDeletion(t *testing.T) {
	h, err := NewHighMemory(HighMemConfig{N: 512, Gamma: 0.5, Alpha: 0.5, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	h.DeleteRandom(200) // acute 40% loss
	if h.Size() != 312 {
		t.Fatalf("deletion failed: %d", h.Size())
	}
	for epoch := 0; epoch < 6; epoch++ {
		h.RunEpoch()
	}
	if h.Size() < 400 || h.Size() > 650 {
		t.Errorf("no recovery: size %d after 6 epochs", h.Size())
	}
}

// TestHighMemoryPoisonedByInsertion is the E15 negative arm: a handful of
// agents inserted with fabricated identifier sets convince everyone the
// population is huge, triggering mass death.
func TestHighMemoryPoisonedByInsertion(t *testing.T) {
	h, err := NewHighMemory(HighMemConfig{N: 512, Gamma: 0.5, Alpha: 0.5, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < 8; epoch++ {
		h.InsertFabricated(2, 1024) // 2 poisoned agents per epoch
		h.RunEpoch()
	}
	if h.Size() > 256 {
		t.Errorf("poisoning failed: size %d, want collapse below (1-α)N = 256", h.Size())
	}
}

func TestHighMemoryMemoryBlowUp(t *testing.T) {
	h, err := NewHighMemory(HighMemConfig{N: 256, Gamma: 1, Alpha: 0.5, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	// After a full gossip interval each agent knows nearly everyone:
	// memory per agent ≈ 64·N bits ≫ log log N.
	for i := 0; i < h.EpochLen()-1; i++ {
		h.RunRound()
	}
	if bits := h.MemoryBitsPerAgent(); bits < 64*200 {
		t.Errorf("memory per agent %.0f bits; expected Θ(N·64)", bits)
	}
}

func TestHighMemoryEpochLenDerived(t *testing.T) {
	h, err := NewHighMemory(HighMemConfig{N: 512, Gamma: 0.5, Alpha: 0.5, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if h.EpochLen() != 2*9+4+1 {
		t.Errorf("EpochLen = %d, want 23", h.EpochLen())
	}
}

// --- DriftingClock ---

func TestDriftingClockValidation(t *testing.T) {
	p := fastParams(t)
	inner := MustNewAttempt2(p)
	if _, err := NewDriftingClock(nil, 0.1); err == nil {
		t.Error("accepted nil inner")
	}
	if _, err := NewDriftingClock(inner, -0.1); err == nil {
		t.Error("accepted negative skip probability")
	}
	if _, err := NewDriftingClock(inner, 1); err == nil {
		t.Error("accepted certain stall")
	}
}

func TestDriftingClockZeroIsTransparent(t *testing.T) {
	p := fastParams(t)
	run := func(wrap bool) int {
		var proto sim.Stepper = MustNewAttempt2(p)
		if wrap {
			d, err := NewDriftingClock(proto, 0)
			if err != nil {
				t.Fatal(err)
			}
			proto = d
		}
		e := sim.MustNew(sim.Config{Params: p, Protocol: sim.Lift(proto), Seed: 20})
		e.RunRounds(100)
		return e.Size()
	}
	if a, b := run(false), run(true); a != b {
		t.Errorf("delta=0 wrapper changed the trajectory: %d != %d", a, b)
	}
}

func TestDriftingClockStallsRoundCounter(t *testing.T) {
	p := fastParams(t)
	pr := MustNewAttempt2(p) // epoch-free; only stall behavior matters
	d, err := NewDriftingClock(pr, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	src := prng.New(21)
	// With 50% stalls over many single-agent steps, roughly half the steps
	// must leave the state untouched.
	stalled := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		s := agent.State{}
		d.Step(&s, wire.Message{}, false, src)
		if !s.Active {
			// Attempt2's first non-stalled step always initializes the
			// window (Active=true), so Active=false means the step stalled.
			stalled++
		}
	}
	if stalled < trials/3 || stalled > 2*trials/3 {
		t.Errorf("stalled %d of %d steps at delta=0.5", stalled, trials)
	}
	if d.EpochLen() != pr.EpochLen() {
		t.Error("EpochLen not delegated")
	}
	if d.Compose(&agent.State{}) != pr.Compose(&agent.State{}) {
		t.Error("Compose not delegated")
	}
}

func TestStringers(t *testing.T) {
	p := fastParams(t)
	if s := MustNewAttempt1(p).String(); s == "" {
		t.Error("attempt1 String")
	}
	if s := MustNewAttempt2(p).String(); s == "" {
		t.Error("attempt2 String")
	}
}
