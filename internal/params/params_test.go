package params

import (
	"math"
	"strings"
	"testing"
)

func TestDeriveDefaults(t *testing.T) {
	p, err := Derive(65536)
	if err != nil {
		t.Fatal(err)
	}
	if p.LogN != 16 {
		t.Errorf("LogN = %d, want 16", p.LogN)
	}
	if p.HalfLogN != 8 {
		t.Errorf("HalfLogN = %d, want 8", p.HalfLogN)
	}
	if p.ClusterSize != 256 {
		t.Errorf("ClusterSize = %d, want 256 (√N)", p.ClusterSize)
	}
	if p.Tinner != 256 {
		t.Errorf("Tinner = %d, want log²N = 256", p.Tinner)
	}
	if p.T != 2048 {
		t.Errorf("T = %d, want Tinner·½logN = 2048", p.T)
	}
	if p.LeaderBiasExp != 11 {
		t.Errorf("LeaderBiasExp = %d, want 11 (1/(8√N) = 2^-11)", p.LeaderBiasExp)
	}
	if p.SplitBiasExp != 4 {
		t.Errorf("SplitBiasExp = %d, want 4 (16/√N = 2^-4)", p.SplitBiasExp)
	}
	if p.Gamma != DefaultGamma || p.Alpha != DefaultAlpha {
		t.Errorf("defaults: gamma=%v alpha=%v", p.Gamma, p.Alpha)
	}
}

func TestDeriveRejections(t *testing.T) {
	cases := []struct {
		name string
		n    int
		opts []Option
	}{
		{"below minimum", 1024, nil},
		{"not power of two", 5000, nil},
		{"odd log", 8192, nil}, // 2^13
		{"tinner too small", 4096, []Option{WithTinner(10)}},
		{"tinner above N/halfLogN", 4096, []Option{WithTinner(4096/6 + 1)}},
		{"tinner overflowing T", 4096, []Option{WithTinner(1 << 62)}},
		{"gamma zero", 4096, []Option{WithGamma(0)}},
		{"gamma above one", 4096, []Option{WithGamma(1.5)}},
		{"alpha zero", 4096, []Option{WithAlpha(0)}},
		{"alpha above half", 4096, []Option{WithAlpha(0.75)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Derive(tc.n, tc.opts...); err == nil {
				t.Errorf("Derive(%d, %d opts) accepted, want error", tc.n, len(tc.opts))
			}
		})
	}
}

func TestDeriveOptions(t *testing.T) {
	p, err := Derive(4096, WithTinner(48), WithGamma(0.5), WithAlpha(0.25))
	if err != nil {
		t.Fatal(err)
	}
	if p.Tinner != 48 {
		t.Errorf("Tinner = %d, want 48", p.Tinner)
	}
	if p.T != 48*6 {
		t.Errorf("T = %d, want 288", p.T)
	}
	if p.Gamma != 0.5 || p.Alpha != 0.25 {
		t.Errorf("options not applied: %+v", p)
	}
}

func TestProbabilities(t *testing.T) {
	p, err := Derive(65536)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.LeaderProb(), 1.0/2048; math.Abs(got-want) > 1e-15 {
		t.Errorf("LeaderProb = %v, want %v", got, want)
	}
	if got, want := p.SplitProb(), 1-1.0/16; math.Abs(got-want) > 1e-15 {
		t.Errorf("SplitProb = %v, want %v", got, want)
	}
}

func TestEvalRound(t *testing.T) {
	p, err := Derive(4096)
	if err != nil {
		t.Fatal(err)
	}
	if p.EvalRound() != p.T-1 {
		t.Errorf("EvalRound = %d, want %d", p.EvalRound(), p.T-1)
	}
}

func TestSubphaseBoundary(t *testing.T) {
	p, err := Derive(4096, WithTinner(24))
	if err != nil {
		t.Fatal(err)
	}
	boundaries := 0
	for r := 0; r < p.T; r++ {
		if p.IsSubphaseBoundary(r) {
			boundaries++
			if (r+1)%p.Tinner != 0 {
				t.Errorf("round %d flagged as boundary", r)
			}
		}
	}
	if boundaries != p.HalfLogN {
		t.Errorf("%d boundaries, want %d", boundaries, p.HalfLogN)
	}
	// The last round of the epoch (evaluation) is always a boundary.
	if !p.IsSubphaseBoundary(p.T - 1) {
		t.Error("final round must be a subphase boundary")
	}
}

func TestSubphaseIndices(t *testing.T) {
	p, err := Derive(4096, WithTinner(24))
	if err != nil {
		t.Fatal(err)
	}
	if p.Subphase(0) != 0 {
		t.Errorf("Subphase(0) = %d", p.Subphase(0))
	}
	if got := p.Subphase(p.T - 1); got != p.HalfLogN-1 {
		t.Errorf("Subphase(T-1) = %d, want %d", got, p.HalfLogN-1)
	}
	// Subphase must be non-decreasing over the epoch.
	prev := 0
	for r := 0; r < p.T; r++ {
		s := p.Subphase(r)
		if s < prev || s >= p.HalfLogN {
			t.Fatalf("Subphase(%d) = %d out of order/range", r, s)
		}
		prev = s
	}
}

func TestRecruitDepth(t *testing.T) {
	p, err := Derive(4096, WithTinner(24))
	if err != nil {
		t.Fatal(err)
	}
	// An agent recruited in the first subphase (round 1..Tinner-1) must get
	// depth ½logN − 1: it has all remaining subphases to recruit its own
	// subtree of size 2^(½logN − 1).
	if got := p.RecruitDepthAt(1); got != p.HalfLogN-1 {
		t.Errorf("RecruitDepthAt(1) = %d, want %d", got, p.HalfLogN-1)
	}
	if got := p.RecruitDepthAt(p.Tinner - 1); got != p.HalfLogN-1 {
		t.Errorf("RecruitDepthAt(Tinner-1) = %d, want %d", got, p.HalfLogN-1)
	}
	// An agent recruited in the second subphase gets one less.
	if got := p.RecruitDepthAt(p.Tinner); got != p.HalfLogN-2 {
		t.Errorf("RecruitDepthAt(Tinner) = %d, want %d", got, p.HalfLogN-2)
	}
	// An agent recruited in the final subphase gets depth 0: a leaf.
	if got := p.RecruitDepthAt(p.T - 2); got != 0 {
		t.Errorf("RecruitDepthAt(T-2) = %d, want 0", got)
	}
}

func TestRecruitDepthTreeAccounting(t *testing.T) {
	// A leader plus its recruitment tree must total exactly √N agents if
	// every recruit attempt succeeds: a node with depth d recruited at
	// subphase s recruits one child per remaining subphase, and depths
	// decrement per subphase. Simulate the tree size bottom-up.
	p, err := Derive(65536, WithTinner(64))
	if err != nil {
		t.Fatal(err)
	}
	// size(d) = total subtree size of a node responsible for depth d.
	// A node with depth d recruits children with depths d-1, d-2, ..., 0.
	size := make([]int, p.HalfLogN+1)
	size[0] = 1
	for d := 1; d <= p.HalfLogN; d++ {
		size[d] = 1
		for c := 0; c < d; c++ {
			size[d] += size[c]
		}
	}
	if size[p.HalfLogN] != p.ClusterSize {
		t.Errorf("tree size with full recruitment = %d, want √N = %d",
			size[p.HalfLogN], p.ClusterSize)
	}
}

func TestMaxTolerableK(t *testing.T) {
	p, err := Derive(65536)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.MaxTolerableK(); got != 16 {
		t.Errorf("MaxTolerableK = %d, want N^(1/4) = 16", got)
	}
	p2, err := Derive(16384) // 2^14, logN/2 = 7 odd → √2 factor
	if err != nil {
		t.Fatal(err)
	}
	want := int(math.Pow(16384, 0.25))
	got := p2.MaxTolerableK()
	if got < want-1 || got > want+1 {
		t.Errorf("MaxTolerableK(16384) = %d, want about %d", got, want)
	}
}

func TestBounds(t *testing.T) {
	cases := []struct {
		n      int
		alpha  float64
		lo, hi int
	}{
		{4096, 0.5, 2048, 6144},
		// Non-integral bounds: 2867.2 rounds up, 5324.8 rounds down.
		{4096, 0.3, 2868, 5324},
		{65536, 0.1, 58983, 72089},
	}
	for _, tc := range cases {
		p, err := Derive(tc.n, WithAlpha(tc.alpha))
		if err != nil {
			t.Fatal(err)
		}
		if lo, hi := p.Bounds(); lo != tc.lo || hi != tc.hi {
			t.Errorf("N=%d α=%v: Bounds = [%d, %d], want [%d, %d]", tc.n, tc.alpha, lo, hi, tc.lo, tc.hi)
		}
	}
}

func TestPredictedEquilibrium(t *testing.T) {
	cases := map[int]int{
		4096:    3072,  // 4096 − 16·64
		65536:   61440, // 65536 − 16·256
		1048576: 1032192,
	}
	for n, want := range cases {
		p, err := Derive(n)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.PredictedEquilibrium(); got != want {
			t.Errorf("PredictedEquilibrium(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestStringContainsKeyFields(t *testing.T) {
	p, err := Derive(4096)
	if err != nil {
		t.Fatal(err)
	}
	s := p.String()
	for _, want := range []string{"N=4096", "T=", "Tinner=", "cluster=64"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	p, err := Derive(4096)
	if err != nil {
		t.Fatal(err)
	}
	broken := p
	broken.T++
	if broken.Validate() == nil {
		t.Error("Validate accepted inconsistent T")
	}
	broken = p
	broken.LogN = 13
	if broken.Validate() == nil {
		t.Error("Validate accepted odd LogN")
	}
}
