package match

import (
	"math"
	"testing"
	"testing/quick"

	"popstab/internal/prng"
)

func TestUniformValidation(t *testing.T) {
	if _, err := NewUniform(0); err == nil {
		t.Error("NewUniform(0) accepted")
	}
	if _, err := NewUniform(1.1); err == nil {
		t.Error("NewUniform(1.1) accepted")
	}
	if _, err := NewUniform(0.25); err != nil {
		t.Errorf("NewUniform(0.25) rejected: %v", err)
	}
}

func TestBernoulliValidation(t *testing.T) {
	if _, err := NewBernoulli(0); err == nil {
		t.Error("NewBernoulli(0) accepted")
	}
	if _, err := NewBernoulli(2); err == nil {
		t.Error("NewBernoulli(2) accepted")
	}
	if _, err := NewBernoulli(0.5); err != nil {
		t.Errorf("NewBernoulli(0.5) rejected: %v", err)
	}
}

func TestUniformPairingValid(t *testing.T) {
	src := prng.New(1)
	sched := Uniform{Gamma: 0.25}
	var p Pairing
	f := func(nRaw uint16) bool {
		n := int(nRaw%2000) + 2
		sched.Sample(n, src, &p)
		return p.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestUniformCoverage(t *testing.T) {
	src := prng.New(2)
	for _, gamma := range []float64{0.1, 0.25, 0.5, 1.0} {
		sched := Uniform{Gamma: gamma}
		var p Pairing
		const n = 10000
		sched.Sample(n, src, &p)
		want := 2 * int(gamma*n/2)
		if got := p.Matched(); got != want {
			t.Errorf("gamma=%v: matched %d, want exactly %d", gamma, got, want)
		}
	}
}

func TestUniformIndependentAcrossRounds(t *testing.T) {
	// Two consecutive samples should pair agent 0 with different partners
	// almost always for large n.
	src := prng.New(3)
	sched := Uniform{Gamma: 1.0}
	var p Pairing
	const n = 1000
	same := 0
	trials := 200
	prev := int32(-2)
	for i := 0; i < trials; i++ {
		sched.Sample(n, src, &p)
		if p.Nbr[0] == prev {
			same++
		}
		prev = p.Nbr[0]
	}
	if same > 3 {
		t.Errorf("agent 0 kept the same neighbor %d/%d rounds", same, trials)
	}
}

func TestUniformMarginalUniformity(t *testing.T) {
	// Under a full matching over n=4 agents, agent 0's partner must be
	// uniform over {1,2,3}.
	src := prng.New(4)
	sched := Full{}
	var p Pairing
	counts := map[int32]int{}
	const trials = 30000
	for i := 0; i < trials; i++ {
		sched.Sample(4, src, &p)
		counts[p.Nbr[0]]++
	}
	want := float64(trials) / 3
	sigma := math.Sqrt(want)
	for partner, c := range counts {
		if partner == Unmatched {
			t.Fatalf("agent 0 unmatched under full matching of even n")
		}
		if math.Abs(float64(c)-want) > 6*sigma {
			t.Errorf("partner %d: %d draws, want about %.0f", partner, c, want)
		}
	}
}

func TestFullPairingOddN(t *testing.T) {
	src := prng.New(5)
	var p Pairing
	Full{}.Sample(7, src, &p)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := p.Matched(); got != 6 {
		t.Errorf("matched %d of 7, want 6", got)
	}
}

func TestBernoulliPairingValid(t *testing.T) {
	src := prng.New(6)
	sched := Bernoulli{Participate: 0.5}
	var p Pairing
	for n := 2; n < 200; n += 17 {
		sched.Sample(n, src, &p)
		if err := p.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestBernoulliCoverageConcentration(t *testing.T) {
	src := prng.New(7)
	sched := Bernoulli{Participate: 0.5}
	var p Pairing
	const n = 20000
	sched.Sample(n, src, &p)
	got := float64(p.Matched())
	want := 0.5 * n
	if math.Abs(got-want) > 6*math.Sqrt(n*0.25) {
		t.Errorf("matched %v, want about %v", got, want)
	}
}

func TestSequentialSingle(t *testing.T) {
	src := prng.New(8)
	var p Pairing
	Sequential{}.Sample(100, src, &p)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := p.Matched(); got != 2 {
		t.Errorf("matched %d agents, want 2", got)
	}
	// Degenerate population.
	Sequential{}.Sample(1, src, &p)
	if got := p.Matched(); got != 0 {
		t.Errorf("matched %d in population of 1, want 0", got)
	}
}

func TestPairingResetGrowsAndShrinks(t *testing.T) {
	var p Pairing
	p.Reset(100)
	if len(p.Nbr) != 100 {
		t.Fatalf("len = %d", len(p.Nbr))
	}
	p.Nbr[0] = 5
	p.Reset(10)
	if len(p.Nbr) != 10 {
		t.Fatalf("len after shrink = %d", len(p.Nbr))
	}
	if p.Nbr[0] != Unmatched {
		t.Fatal("Reset did not clear entries")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	var p Pairing
	p.Reset(4)
	p.Nbr[0] = 1 // asymmetric: Nbr[1] still Unmatched
	if p.Validate() == nil {
		t.Error("Validate accepted asymmetric pairing")
	}
	p.Reset(4)
	p.Nbr[2] = 2
	if p.Validate() == nil {
		t.Error("Validate accepted self-pairing")
	}
	p.Reset(4)
	p.Nbr[3] = 9
	if p.Validate() == nil {
		t.Error("Validate accepted out-of-range neighbor")
	}
}

func TestSampleNoAllocationsSteadyState(t *testing.T) {
	src := prng.New(9)
	sched := Uniform{Gamma: 0.25}
	var p Pairing
	sched.Sample(1000, src, &p) // warm up buffers
	allocs := testing.AllocsPerRun(20, func() {
		sched.Sample(1000, src, &p)
	})
	if allocs > 0 {
		t.Errorf("Sample allocates %v per run in steady state", allocs)
	}
}

func TestSchedulerNames(t *testing.T) {
	cases := []struct {
		s    Scheduler
		want string
	}{
		{Uniform{Gamma: 0.25}, "uniform(0.25)"},
		{Full{}, "full"},
		{Bernoulli{Participate: 0.5}, "bernoulli(0.50)"},
		{Sequential{}, "sequential"},
	}
	for _, tc := range cases {
		if got := tc.s.Name(); got != tc.want {
			t.Errorf("Name() = %q, want %q", got, tc.want)
		}
	}
}

func TestMinFractions(t *testing.T) {
	if got := (Uniform{Gamma: 0.3}).MinFraction(); got != 0.3 {
		t.Errorf("Uniform.MinFraction = %v", got)
	}
	if got := (Full{}).MinFraction(); got != 1 {
		t.Errorf("Full.MinFraction = %v", got)
	}
	if got := (Bernoulli{Participate: 0.5}).MinFraction(); got != 0 {
		t.Errorf("Bernoulli.MinFraction = %v", got)
	}
}

func BenchmarkUniformSample(b *testing.B) {
	src := prng.New(1)
	sched := Uniform{Gamma: 0.25}
	var p Pairing
	const n = 65536
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.Sample(n, src, &p)
	}
}

// BenchmarkUniformSampleN262144 times the mixed-greedy workload's matching
// on its own: a γ = 0.25 uniform sample over 2¹⁸ agents.
func BenchmarkUniformSampleN262144(b *testing.B) {
	src := prng.New(1)
	sched := Uniform{Gamma: 0.25}
	var p Pairing
	b.ReportAllocs()
	for b.Loop() {
		sched.Sample(1<<18, src, &p)
	}
}
