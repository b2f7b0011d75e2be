package sim

import (
	"math"
	"testing"

	"popstab/internal/adversary"
	"popstab/internal/match"
	"popstab/internal/params"
	"popstab/internal/population"
	"popstab/internal/prng"
	"popstab/internal/protocol"
	"popstab/internal/wire"
)

// fastParams returns a quick configuration: N=4096, Tinner=24, T=144.
func fastParams(t testing.TB, opts ...params.Option) params.Params {
	t.Helper()
	opts = append([]params.Option{params.WithTinner(24)}, opts...)
	p, err := params.Derive(4096, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func newEngine(t testing.TB, p params.Params, cfg Config) (*Engine, *protocol.Protocol) {
	t.Helper()
	pr := protocol.MustNew(p)
	cfg.Params = p
	cfg.Protocol = pr
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, pr
}

func TestNewValidation(t *testing.T) {
	p := fastParams(t)
	if _, err := New(Config{Params: p}); err == nil {
		t.Error("New accepted missing protocol")
	}
	if _, err := New(Config{Params: params.Params{}, Protocol: protocol.MustNew(p)}); err == nil {
		t.Error("New accepted invalid params")
	}
	if _, err := New(Config{Params: p, Protocol: protocol.MustNew(p), K: -1}); err == nil {
		t.Error("New accepted negative budget")
	}
	if _, err := New(Config{Params: p, Protocol: protocol.MustNew(p), InitialSize: -5}); err == nil {
		t.Error("New accepted negative initial size")
	}
}

func TestInitialPopulation(t *testing.T) {
	p := fastParams(t)
	e, _ := newEngine(t, p, Config{Seed: 1})
	if e.Size() != p.N {
		t.Errorf("initial size %d, want %d", e.Size(), p.N)
	}
	e2, _ := newEngine(t, p, Config{Seed: 1, InitialSize: 100})
	if e2.Size() != 100 {
		t.Errorf("initial size %d, want 100", e2.Size())
	}
}

func TestDeterministicReplay(t *testing.T) {
	p := fastParams(t)
	run := func() []int {
		e, _ := newEngine(t, p, Config{Seed: 42, K: 2, Adversary: adversary.NewRandomDeleter()})
		sizes := make([]int, 0, 50)
		for i := 0; i < 50; i++ {
			rep := e.RunRound()
			sizes = append(sizes, rep.SizeAfter)
		}
		return sizes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trajectories diverged at round %d: %d != %d", i, a[i], b[i])
		}
	}
}

func TestSeedSensitivity(t *testing.T) {
	p := fastParams(t)
	e1, _ := newEngine(t, p, Config{Seed: 1})
	e2, _ := newEngine(t, p, Config{Seed: 2})
	r1 := e1.RunEpochs(3)
	r2 := e2.RunEpochs(3)
	same := true
	for i := range r1 {
		if r1[i].Births != r2[i].Births || r1[i].Deaths != r2[i].Deaths {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical epoch dynamics")
	}
}

func TestRoundReportAccounting(t *testing.T) {
	p := fastParams(t)
	e, _ := newEngine(t, p, Config{Seed: 3, K: 5, Adversary: adversary.NewBenignInserter()})
	for i := 0; i < 20; i++ {
		rep := e.RunRound()
		if rep.AdvInserted+rep.AdvDeleted > 5 {
			t.Fatalf("round %d: adversary exceeded budget: %+v", i, rep)
		}
		want := rep.SizeBefore + rep.AdvInserted - rep.AdvDeleted + rep.Births - rep.Deaths
		if rep.SizeAfter != want {
			t.Fatalf("round %d: size accounting broken: %+v (want %d)", i, rep, want)
		}
	}
}

func TestEpochAlignment(t *testing.T) {
	p := fastParams(t)
	e, _ := newEngine(t, p, Config{Seed: 4})
	// Run a partial epoch, then RunEpoch must finish it at the boundary.
	e.RunRounds(10)
	e.RunEpoch()
	if got := e.GlobalRound() % uint64(p.T); got != 0 {
		t.Errorf("after RunEpoch, global round %d not on boundary", e.GlobalRound())
	}
	if e.EpochIndex() != 1 {
		t.Errorf("EpochIndex = %d, want 1", e.EpochIndex())
	}
	rep := e.RunEpoch()
	if rep.Epoch != 1 {
		t.Errorf("epoch report index %d, want 1", rep.Epoch)
	}
	if e.GlobalRound() != uint64(2*p.T) {
		t.Errorf("global round %d, want %d", e.GlobalRound(), 2*p.T)
	}
}

func TestEpochReportExtremes(t *testing.T) {
	p := fastParams(t)
	e, _ := newEngine(t, p, Config{Seed: 5})
	rep := e.RunEpoch()
	if rep.MinSize > rep.StartSize || rep.MinSize > rep.EndSize {
		t.Errorf("MinSize inconsistent: %+v", rep)
	}
	if rep.MaxSize < rep.StartSize || rep.MaxSize < rep.EndSize {
		t.Errorf("MaxSize inconsistent: %+v", rep)
	}
	if rep.Delta() != rep.EndSize-rep.StartSize {
		t.Errorf("Delta = %d", rep.Delta())
	}
}

// TestStabilityNoAdversary is the E1 theorem check at test scale: with no
// adversary the population must remain within [(1−α)N, (1+α)N] across many
// epochs (the drift fixed point N − 16√N = 3072 is inside that interval).
func TestStabilityNoAdversary(t *testing.T) {
	p := fastParams(t)
	e, _ := newEngine(t, p, Config{Seed: 6})
	lo, hi := int(float64(p.N)*(1-p.Alpha)), int(float64(p.N)*(1+p.Alpha))
	for i := 0; i < 60; i++ {
		rep := e.RunEpoch()
		if rep.MinSize < lo || rep.MaxSize > hi {
			t.Fatalf("epoch %d: population left [%d,%d]: %+v", i, lo, hi, rep)
		}
	}
}

// TestStabilityUnderPacedAdversaries runs the strategy gallery at the
// paper's per-epoch budget N^{1/4} and asserts the theorem's interval.
func TestStabilityUnderPacedAdversaries(t *testing.T) {
	p := fastParams(t)
	strategies := []adversary.Adversary{
		adversary.NewRandomDeleter(),
		adversary.NewBenignInserter(),
		adversary.NewLeaderKiller(),
		adversary.NewColorSkewer(true),
		adversary.NewColorSkewer(false),
		adversary.NewWrongRoundInserter(7),
		adversary.NewEvalFlooder(),
		adversary.NewGreedy(),
	}
	perEpoch := p.MaxTolerableK() // N^{1/4} alterations per epoch
	for _, adv := range strategies {
		adv := adv
		t.Run(adv.Name(), func(t *testing.T) {
			paced := adversary.NewPaced(adversary.PerEpoch(p.T, perEpoch, 1), adv)
			e, _ := newEngine(t, p, Config{Seed: 7, K: 1, Adversary: paced})
			lo, hi := int(float64(p.N)*(1-p.Alpha)), int(float64(p.N)*(1+p.Alpha))
			for i := 0; i < 40; i++ {
				rep := e.RunEpoch()
				if rep.MinSize < lo || rep.MaxSize > hi {
					t.Fatalf("epoch %d: population left [%d,%d]: %+v", i, lo, hi, rep)
				}
			}
		})
	}
}

// TestCodecEquivalence verifies the three-bit production codec induces
// exactly the same trajectory as the four-bit reference codec (Theorem 2's
// message-size reduction is behavior-preserving).
func TestCodecEquivalence(t *testing.T) {
	p := fastParams(t)
	run := func(c wire.Codec) []int {
		pr := protocol.MustNew(p, protocol.WithCodec(c))
		e, err := New(Config{Params: p, Protocol: pr, Seed: 99, K: 1,
			Adversary: adversary.NewWrongRoundInserter(3)})
		if err != nil {
			t.Fatal(err)
		}
		sizes := make([]int, 0, 3*p.T)
		for i := 0; i < 3*p.T; i++ {
			sizes = append(sizes, e.RunRound().SizeAfter)
		}
		return sizes
	}
	three := run(wire.ThreeBit{})
	four := run(wire.FourBit{})
	for i := range three {
		if three[i] != four[i] {
			t.Fatalf("codecs diverged at round %d: 3bit=%d 4bit=%d", i, three[i], four[i])
		}
	}
}

// TestLemma4ActiveFraction asserts at most half the agents are active at
// every round boundary of several epochs.
func TestLemma4ActiveFraction(t *testing.T) {
	p := fastParams(t)
	e, _ := newEngine(t, p, Config{Seed: 8})
	for r := 0; r < 3*p.T; r++ {
		e.RunRound()
		c := e.Census()
		if f := c.ActiveFraction(); f > 0.5 {
			t.Fatalf("round %d: active fraction %.3f > 1/2", r, f)
		}
	}
}

// TestLemma5RecruitCompletion asserts that in an undisturbed epoch, active
// agents reach the evaluation round with toRecruit = 0. The lemma holds with
// high probability for Tinner = ω(log N); at test scale we use Tinner = 48
// and allow a miss rate below 1% (per-subphase failure probability is
// (1−Θ(γ))^Tinner, non-negligible only because N is small).
func TestLemma5RecruitCompletion(t *testing.T) {
	p := fastParams(t, params.WithTinner(48))
	e, _ := newEngine(t, p, Config{Seed: 9})
	// Run to one round before the evaluation round.
	e.RunRounds(p.T - 1)
	c := e.Census()
	if c.Active == 0 {
		t.Fatal("no active agents at evaluation")
	}
	incomplete := 0
	for d := 1; d < len(c.ByToRecruit); d++ {
		incomplete += c.ByToRecruit[d]
	}
	if allowed := c.Active/100 + 1; incomplete > allowed {
		t.Errorf("%d of %d active agents entered evaluation with toRecruit > 0 (allowed %d, histogram %v)",
			incomplete, c.Active, allowed, c.ByToRecruit)
	}
}

// TestLemma6ColorBalance asserts the per-color counts at the evaluation
// round are close to m/16 each.
func TestLemma6ColorBalance(t *testing.T) {
	p := fastParams(t)
	e, _ := newEngine(t, p, Config{Seed: 10})
	for epoch := 0; epoch < 5; epoch++ {
		e.RunRounds(p.T - 1)
		c := e.Census()
		m := float64(c.Total)
		// m/16 ± slack; at N=4096 the leader-count noise dominates:
		// std(#leaders per color) ≈ √(m/16/64) clusters ≈ 2 clusters of 64.
		slack := 6.0 * 64 * 2 // 6σ in agents
		for b := 0; b < 2; b++ {
			got := float64(c.ColorCount[b])
			if got < m/16-slack || got > m/16+slack {
				t.Errorf("epoch %d color %d: %v agents, want %v ± %v", epoch, b, got, m/16, slack)
			}
		}
		e.RunRounds(1) // finish the epoch
	}
}

// TestLemma3WrongRoundBounded runs the desynchronization attack at the
// per-epoch budget and asserts the wrong-round count stays bounded well
// below the population (steady state ≈ perEpoch/(1-(1-γ)²) ≈ 2.3 per-epoch
// budget).
func TestLemma3WrongRoundBounded(t *testing.T) {
	p := fastParams(t)
	perEpoch := p.MaxTolerableK()
	paced := adversary.NewPaced(adversary.PerEpoch(p.T, perEpoch, 1),
		adversary.NewWrongRoundInserter(p.T/2))
	e, _ := newEngine(t, p, Config{Seed: 11, K: 1, Adversary: paced})
	bound := 6 * perEpoch // generous steady-state bound
	for epoch := 0; epoch < 20; epoch++ {
		e.RunEpoch()
		c := e.Census()
		if c.WrongRound > bound {
			t.Fatalf("epoch %d: %d wrong-round agents (bound %d)", epoch, c.WrongRound, bound)
		}
	}
}

func TestForceResize(t *testing.T) {
	p := fastParams(t)
	e, _ := newEngine(t, p, Config{Seed: 12})
	e.RunRounds(10)
	e.ForceResize(2000)
	if e.Size() != 2000 {
		t.Fatalf("size %d after ForceResize", e.Size())
	}
	// Padded agents must carry the current epoch round so they do not die
	// to the consistency check.
	c := e.Census()
	if c.WrongRound != 0 {
		t.Errorf("%d wrong-round agents after ForceResize", c.WrongRound)
	}
}

func TestNewFromPopulation(t *testing.T) {
	p := fastParams(t)
	pr := protocol.MustNew(p)
	pop := population.New(123)
	e, err := NewFromPopulation(Config{Params: p, Protocol: pr, Seed: 1}, pop)
	if err != nil {
		t.Fatal(err)
	}
	if e.Size() != 123 {
		t.Fatalf("size %d", e.Size())
	}
	if e.Population() != pop {
		t.Error("engine did not take ownership of the population")
	}
	if _, err := NewFromPopulation(Config{Params: p, Protocol: pr}, nil); err == nil {
		t.Error("accepted nil population")
	}
}

func TestAdversaryAfterStepTiming(t *testing.T) {
	p := fastParams(t)
	// With after-step timing, an inserted agent must appear in SizeAfter
	// but must not have taken a protocol step this round.
	pr := protocol.MustNew(p)
	e, err := New(Config{Params: p, Protocol: pr, Seed: 2, K: 3,
		Adversary: adversary.NewBenignInserter(), AdversaryAfterStep: true})
	if err != nil {
		t.Fatal(err)
	}
	rep := e.RunRound()
	if rep.AdvInserted != 3 {
		t.Fatalf("inserted %d", rep.AdvInserted)
	}
	if rep.SizeAfter != rep.SizeBefore+3+rep.Births-rep.Deaths {
		t.Fatalf("accounting: %+v", rep)
	}
	// The inserted agents carry the epoch round captured at insertion time
	// (end of round 0 = round 0 counter), so after round 1 they lag the
	// majority by one; the consistency check only fires at eval boundaries,
	// so they survive to be counted.
	c := e.Census()
	if c.Total != rep.SizeAfter {
		t.Fatalf("census total %d != %d", c.Total, rep.SizeAfter)
	}
}

// TestGoldenTrajectory pins the exact trajectory of a fixed configuration.
// It exists to catch unintended semantic changes to the protocol, engine,
// scheduler, or PRNG: any of those changes this number. If a change is
// INTENDED, regenerate with:
//
//	go test -run TestGoldenTrajectory -v ./internal/sim/ (the failure
//	message prints the new value)
func TestGoldenTrajectory(t *testing.T) {
	p := fastParams(t)
	e, _ := newEngine(t, p, Config{Seed: 424242, K: 2, Adversary: adversary.NewGreedy()})
	var checksum uint64
	for i := 0; i < 2*p.T; i++ {
		rep := e.RunRound()
		checksum = checksum*31 + uint64(rep.SizeAfter)
	}
	const want = uint64(17620344927233764585)
	if checksum != want {
		t.Errorf("trajectory checksum changed: got %d, want %d\n"+
			"(if this change is intentional, update the golden value)", checksum, want)
	}
}

// TestTorusGoldenTrajectory pins the exact trajectory of the paper protocol
// on the torus matcher with daughters spread by the mean inter-agent spacing
// 1/√N — the spatial engine of experiment A5 and the torus twin of
// TestGoldenTrajectory. If a change is INTENDED, rerun with -v and update
// the constant.
func TestTorusGoldenTrajectory(t *testing.T) {
	p := fastParams(t)
	torus, err := match.NewTorus(1 / math.Sqrt(float64(p.N)))
	if err != nil {
		t.Fatal(err)
	}
	e, _ := newEngine(t, p, Config{Seed: 424242, Workers: 1, Matcher: torus})
	var checksum uint64
	for i := 0; i < 2*p.T; i++ {
		rep := e.RunRound()
		checksum = checksum*31 + uint64(rep.SizeAfter)
	}
	const want = uint64(9749419792947619442)
	if checksum != want {
		t.Errorf("trajectory checksum changed: got %d, want %d\n"+
			"(if this change is intentional, update the golden value)", checksum, want)
	}
}

func TestSchedulerOverride(t *testing.T) {
	p := fastParams(t)
	e, _ := newEngine(t, p, Config{Seed: 13, Scheduler: match.Full{}})
	rep := e.RunEpoch()
	if rep.EndSize == 0 {
		t.Fatal("population collapsed under full scheduler")
	}
}

// TestStressResizeAndRun interleaves forced displacements with protocol
// rounds at random, asserting the engine's internal accounting never breaks
// (sizes consistent, census total matches, no panics). This is the
// failure-injection companion to the clean-run tests.
func TestStressResizeAndRun(t *testing.T) {
	p := fastParams(t)
	e, _ := newEngine(t, p, Config{Seed: 99, K: 2, Adversary: adversary.NewGreedy()})
	src := prng.New(123)
	for i := 0; i < 400; i++ {
		switch src.Intn(10) {
		case 0:
			// Displace somewhere in [N/4, 2N].
			target := p.N/4 + src.Intn(2*p.N)
			e.ForceResize(target)
			if e.Size() != target {
				t.Fatalf("step %d: resize to %d left %d", i, target, e.Size())
			}
		default:
			rep := e.RunRound()
			want := rep.SizeBefore + rep.AdvInserted - rep.AdvDeleted + rep.Births - rep.Deaths
			if rep.SizeAfter != want {
				t.Fatalf("step %d: accounting %+v", i, rep)
			}
		}
		if c := e.Census(); c.Total != e.Size() {
			t.Fatalf("step %d: census %d != size %d", i, c.Total, e.Size())
		}
	}
}

func BenchmarkRoundN4096(b *testing.B) {
	p := fastParams(b)
	pr := protocol.MustNew(p)
	e := MustNew(Config{Params: p, Protocol: pr, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunRound()
	}
	b.ReportMetric(float64(e.Size()), "final_pop")
}

func BenchmarkEpochN4096(b *testing.B) {
	p := fastParams(b)
	pr := protocol.MustNew(p)
	e := MustNew(Config{Params: p, Protocol: pr, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunEpoch()
	}
}
