package protocol

import (
	"math"
	"testing"

	"popstab/internal/agent"
	"popstab/internal/params"
	"popstab/internal/population"
	"popstab/internal/prng"
	"popstab/internal/wire"
)

// testParams returns a small, fast parameterization: N=4096, Tinner=24
// (still ω(log N) territory at this scale), T=144.
func testParams(t *testing.T) params.Params {
	t.Helper()
	p, err := params.Derive(4096, params.WithTinner(24))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// exchange performs one round for two mutually matched agents a and b,
// mirroring the engine's compose-then-step order.
func exchange(pr *Protocol, a, b *agent.State, src *prng.Source) (actA, actB population.Action) {
	ma := pr.Decode(pr.Compose(a))
	mb := pr.Decode(pr.Compose(b))
	actA = pr.Step(a, mb, true, src)
	actB = pr.Step(b, ma, true, src)
	return actA, actB
}

func TestNewValidation(t *testing.T) {
	if _, err := New(params.Params{}); err == nil {
		t.Error("New accepted zero params")
	}
	p := testParams(t)
	pr, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if pr.EpochLen() != p.T {
		t.Errorf("EpochLen = %d, want %d", pr.EpochLen(), p.T)
	}
	if pr.Codec().Bits() != 3 {
		t.Errorf("default codec %d bits, want 3", pr.Codec().Bits())
	}
}

func TestWithCodec(t *testing.T) {
	pr := MustNew(testParams(t), WithCodec(wire.FourBit{}))
	if pr.Codec().Bits() != 4 {
		t.Errorf("codec %d bits, want 4", pr.Codec().Bits())
	}
}

func TestLeaderSelectionFrequency(t *testing.T) {
	p := testParams(t)
	pr := MustNew(p)
	src := prng.New(1)
	const trials = 1 << 19
	leaders := 0
	for i := 0; i < trials; i++ {
		s := agent.State{Round: 0}
		pr.Step(&s, wire.Message{}, false, src)
		if s.Active {
			leaders++
			if !s.Recruiting {
				t.Fatal("leader not recruiting")
			}
			if int(s.ToRecruit) != p.HalfLogN {
				t.Fatalf("leader ToRecruit = %d, want %d", s.ToRecruit, p.HalfLogN)
			}
			if s.Color > 1 {
				t.Fatalf("leader color = %d", s.Color)
			}
		}
		if s.Round != 1 {
			t.Fatalf("round after step = %d, want 1", s.Round)
		}
	}
	want := float64(trials) * p.LeaderProb()
	sigma := math.Sqrt(want)
	if math.Abs(float64(leaders)-want) > 6*sigma {
		t.Errorf("%d leaders of %d, want about %.0f +- %.0f", leaders, trials, want, 6*sigma)
	}
	c := pr.Counters()
	if c.Leaders != uint64(leaders) {
		t.Errorf("counter Leaders = %d, want %d", c.Leaders, leaders)
	}
	// Colors should be near-balanced.
	diff := math.Abs(float64(c.LeadersByColor[0]) - float64(c.LeadersByColor[1]))
	if diff > 6*math.Sqrt(float64(leaders)) {
		t.Errorf("leader color imbalance %v of %d leaders", diff, leaders)
	}
}

func TestLeaderSelectionOverwritesInsertedState(t *testing.T) {
	// An adversarially inserted agent claiming active=1 at round 0 is
	// re-randomized by Algorithm 3 (active := TossBiasedCoin(...)); with
	// overwhelming probability per trial it ends up inactive.
	pr := MustNew(testParams(t))
	src := prng.New(2)
	inactive := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		s := agent.State{Round: 0, Active: true, Color: 1, Recruiting: true, ToRecruit: 6}
		pr.Step(&s, wire.Message{}, false, src)
		if !s.Active {
			inactive++
			if s.Color != agent.ColorNone || s.Recruiting || s.ToRecruit != 0 {
				t.Fatalf("non-leader state not cleared: %+v", s)
			}
		}
	}
	if inactive < trials*9/10 {
		t.Errorf("only %d/%d inserted 'leaders' were re-randomized to inactive", inactive, trials)
	}
}

func TestRecruitmentHandshake(t *testing.T) {
	p := testParams(t)
	pr := MustNew(p)
	src := prng.New(3)

	recruiter := agent.State{Round: 5, Active: true, Color: 1, Recruiting: true, ToRecruit: 6}
	target := agent.State{Round: 5}

	actR, actT := exchange(pr, &recruiter, &target, src)
	if actR != population.ActKeep || actT != population.ActKeep {
		t.Fatalf("actions %v/%v, want keep/keep", actR, actT)
	}
	if recruiter.Recruiting {
		t.Error("recruiter still recruiting after success")
	}
	if recruiter.ToRecruit != 5 {
		t.Errorf("recruiter ToRecruit = %d, want 5", recruiter.ToRecruit)
	}
	if !target.Active || target.Color != 1 {
		t.Errorf("target not recruited: %+v", target)
	}
	if target.Recruiting {
		t.Error("fresh recruit must not recruit this subphase")
	}
	// Round 5 is in subphase 0, so depth = HalfLogN - 1.
	if int(target.ToRecruit) != p.HalfLogN-1 {
		t.Errorf("recruit depth = %d, want %d", target.ToRecruit, p.HalfLogN-1)
	}
	if pr.Counters().Recruits != 1 {
		t.Errorf("Recruits counter = %d", pr.Counters().Recruits)
	}
}

func TestRecruitmentDepthBySubphase(t *testing.T) {
	p := testParams(t)
	pr := MustNew(p)
	src := prng.New(4)
	// A recruit in subphase s gets depth HalfLogN - (s+1).
	for s := 0; s < p.HalfLogN; s++ {
		round := s*p.Tinner + 2 // mid-subphase; not round 0
		if round >= p.T-1 {
			break
		}
		recruiter := agent.State{Round: uint32(round), Active: true, Color: 0, Recruiting: true, ToRecruit: 1}
		target := agent.State{Round: uint32(round)}
		exchange(pr, &recruiter, &target, src)
		want := p.HalfLogN - (s + 1)
		if int(target.ToRecruit) != want {
			t.Errorf("subphase %d (round %d): depth %d, want %d", s, round, target.ToRecruit, want)
		}
	}
}

func TestTwoRecruitersNoOp(t *testing.T) {
	pr := MustNew(testParams(t))
	src := prng.New(5)
	a := agent.State{Round: 5, Active: true, Color: 0, Recruiting: true, ToRecruit: 3}
	b := agent.State{Round: 5, Active: true, Color: 1, Recruiting: true, ToRecruit: 3}
	before := []agent.State{a, b}
	exchange(pr, &a, &b, src)
	// Only the round counters should have advanced.
	for i, s := range []agent.State{a, b} {
		want := before[i]
		want.Round++
		if s != want {
			t.Errorf("recruiter %d changed: %+v -> %+v", i, before[i], s)
		}
	}
}

func TestTwoInactiveNoOp(t *testing.T) {
	pr := MustNew(testParams(t))
	src := prng.New(6)
	a := agent.State{Round: 5}
	b := agent.State{Round: 5}
	exchange(pr, &a, &b, src)
	if a.Active || b.Active {
		t.Error("inactive pair activated each other")
	}
}

func TestNonRecruitingActiveDoesNotRecruit(t *testing.T) {
	// An active agent that already recruited this subphase must not claim
	// another inactive agent.
	pr := MustNew(testParams(t))
	src := prng.New(7)
	a := agent.State{Round: 5, Active: true, Color: 1, Recruiting: false, ToRecruit: 2}
	b := agent.State{Round: 5}
	exchange(pr, &a, &b, src)
	if b.Active {
		t.Error("non-recruiting active agent recruited")
	}
	if a.ToRecruit != 2 {
		t.Errorf("ToRecruit changed to %d", a.ToRecruit)
	}
}

func TestSubphaseBoundaryRearmsOnlyActive(t *testing.T) {
	p := testParams(t)
	pr := MustNew(p)
	src := prng.New(8)
	boundary := uint32(p.Tinner - 1) // round ≡ -1 (mod Tinner)

	active := agent.State{Round: boundary, Active: true, Color: 0, ToRecruit: 3}
	pr.Step(&active, wire.Message{}, false, src)
	if !active.Recruiting {
		t.Error("active agent not re-armed at subphase boundary")
	}

	inactive := agent.State{Round: boundary}
	pr.Step(&inactive, wire.Message{}, false, src)
	if inactive.Recruiting {
		t.Error("inactive agent re-armed at subphase boundary (paper clarification violated)")
	}
}

func TestRecruitMissCounter(t *testing.T) {
	p := testParams(t)
	pr := MustNew(p)
	src := prng.New(9)
	s := agent.State{Round: uint32(p.Tinner - 1), Active: true, Recruiting: true, ToRecruit: 3}
	pr.Step(&s, wire.Message{}, false, src)
	if pr.Counters().RecruitMisses != 1 {
		t.Errorf("RecruitMisses = %d, want 1", pr.Counters().RecruitMisses)
	}
}

func TestEvaluationSameColorSplitRate(t *testing.T) {
	p := testParams(t)
	pr := MustNew(p)
	src := prng.New(10)
	const trials = 200000
	splits, deaths := 0, 0
	for i := 0; i < trials; i++ {
		s := agent.State{Round: uint32(p.T - 1), Active: true, Color: 1}
		nbr := wire.Message{InEvalPhase: true, Active: true, Color: 1}
		switch pr.Step(&s, nbr, true, src) {
		case population.ActSplit:
			splits++
		case population.ActDie:
			deaths++
		}
		if s.Active || s.Round != 0 {
			t.Fatal("state not reset after evaluation")
		}
	}
	if deaths != 0 {
		t.Fatalf("%d deaths on same-color evaluation", deaths)
	}
	want := float64(trials) * p.SplitProb()
	sigma := math.Sqrt(float64(trials) * p.SplitProb() * (1 - p.SplitProb()))
	if math.Abs(float64(splits)-want) > 6*sigma {
		t.Errorf("splits = %d, want about %.0f +- %.0f", splits, want, 6*sigma)
	}
}

func TestEvaluationDifferentColorDies(t *testing.T) {
	p := testParams(t)
	pr := MustNew(p)
	src := prng.New(11)
	for i := 0; i < 100; i++ {
		s := agent.State{Round: uint32(p.T - 1), Active: true, Color: 0}
		nbr := wire.Message{InEvalPhase: true, Active: true, Color: 1}
		if act := pr.Step(&s, nbr, true, src); act != population.ActDie {
			t.Fatalf("different colors: action %v, want die", act)
		}
	}
	if pr.Counters().EvalDeaths != 100 {
		t.Errorf("EvalDeaths = %d", pr.Counters().EvalDeaths)
	}
}

func TestEvaluationInactiveOrUnmatchedKeeps(t *testing.T) {
	p := testParams(t)
	pr := MustNew(p)
	src := prng.New(12)
	cases := []struct {
		name   string
		s      agent.State
		nbr    wire.Message
		hasNbr bool
	}{
		{"unmatched active", agent.State{Round: uint32(p.T - 1), Active: true, Color: 1}, wire.Message{}, false},
		{"inactive self", agent.State{Round: uint32(p.T - 1)}, wire.Message{InEvalPhase: true, Active: true, Color: 1}, true},
		{"inactive neighbor", agent.State{Round: uint32(p.T - 1), Active: true, Color: 1}, wire.Message{InEvalPhase: true}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.s
			if act := pr.Step(&s, tc.nbr, tc.hasNbr, src); act != population.ActKeep {
				t.Errorf("action %v, want keep", act)
			}
			if s.Round != 0 || s.Active {
				t.Error("evaluation round must reset state and wrap round")
			}
		})
	}
}

func TestConsistencyCheckKillsBoth(t *testing.T) {
	p := testParams(t)
	pr := MustNew(p)
	src := prng.New(13)
	// a is at evaluation round, b is mid-epoch: both must die.
	a := agent.State{Round: uint32(p.T - 1), Active: true, Color: 0}
	b := agent.State{Round: 5}
	actA, actB := exchange(pr, &a, &b, src)
	if actA != population.ActDie || actB != population.ActDie {
		t.Errorf("actions %v/%v, want die/die", actA, actB)
	}
	if pr.Counters().ConsistencyDeaths != 2 {
		t.Errorf("ConsistencyDeaths = %d, want 2", pr.Counters().ConsistencyDeaths)
	}
}

func TestConsistencyCheckPassesForAgreeingRounds(t *testing.T) {
	// Agents with different non-eval rounds do NOT die: only the
	// evaluation-phase indicator is exchanged (three-bit message), so
	// mismatched mid-epoch rounds go undetected until one reaches the
	// evaluation round. This is exactly the paper's weakened check.
	pr := MustNew(testParams(t))
	src := prng.New(14)
	a := agent.State{Round: 5}
	b := agent.State{Round: 7}
	actA, actB := exchange(pr, &a, &b, src)
	if actA != population.ActKeep || actB != population.ActKeep {
		t.Errorf("mid-epoch round mismatch killed agents: %v/%v", actA, actB)
	}
}

func TestSanitizeOutOfRangeRound(t *testing.T) {
	p := testParams(t)
	pr := MustNew(p)
	src := prng.New(15)
	s := agent.State{Round: uint32(p.T + 5)}
	pr.Step(&s, wire.Message{}, false, src)
	if int(s.Round) >= p.T {
		t.Errorf("round %d not sanitized", s.Round)
	}
}

func TestCountersReset(t *testing.T) {
	pr := MustNew(testParams(t))
	pr.Counters().Leaders = 5
	pr.Counters().Reset()
	if pr.Counters().Leaders != 0 {
		t.Error("Reset did not clear counters")
	}
}

func TestCountersString(t *testing.T) {
	pr := MustNew(testParams(t))
	if s := pr.Counters().String(); len(s) == 0 {
		t.Error("empty counters string")
	}
}

func TestRoundConstsMatchParams(t *testing.T) {
	for _, n := range []int{4096, 1 << 16, 1 << 18} {
		for _, opts := range [][]params.Option{nil, {params.WithTinner(36)}, {params.WithUnsafeTinner(3)}} {
			p, err := params.Derive(n, opts...)
			if err != nil {
				t.Fatal(err)
			}
			pr := MustNew(p)
			if len(pr.rounds) != p.T {
				t.Fatalf("N=%d Tinner=%d: %d round entries, want T = %d", n, p.Tinner, len(pr.rounds), p.T)
			}
			for r, rc := range pr.rounds {
				if want := p.IsSubphaseBoundary(r); rc.boundary != want {
					t.Errorf("N=%d Tinner=%d round %d: boundary %v, want %v", n, p.Tinner, r, rc.boundary, want)
				}
				if want := max(p.RecruitDepthAt(r), 0); int(rc.depth) != want {
					t.Errorf("N=%d Tinner=%d round %d: depth %d, want %d", n, p.Tinner, r, rc.depth, want)
				}
			}
		}
	}
}
