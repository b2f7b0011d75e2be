// Package params derives and validates the protocol parameters of the
// population stability protocol from the target population size N.
//
// The paper (§3) fixes the following structure. Time is partitioned into
// epochs of T rounds. Each epoch has
//
//   - round 0: leader selection — each agent becomes a leader with
//     probability 1/(8√N) (a biased coin with exponent 3 + ½log N);
//   - rounds 1 .. T−2: recruitment, divided into ½log N subphases of Tinner
//     rounds each (the first and last subphase are one round shorter to make
//     room for leader selection and evaluation);
//   - round T−1: evaluation — matched active pairs compare colors; equal
//     colors split with probability 1 − 16/√N (failure exponent ½log N − 4),
//     unequal colors die.
//
// The paper sets Tinner = log²N for concreteness but only requires
// Tinner = ω(log N) (footnotes 5 and 6); experiments at small N may shrink
// Tinner with WithTinner to keep epochs short.
package params

import (
	"fmt"
	"math"
	"math/bits"
)

// Params holds every derived constant of the protocol for a given target
// population size N. Construct with Derive; the zero value is not valid.
type Params struct {
	// N is the target population size. Must be a power of four (the paper
	// assumes log N is an even integer) and at least MinN.
	N int
	// LogN is log₂ N.
	LogN int
	// HalfLogN is ½ log₂ N: the number of recruitment subphases, the depth
	// of the recruitment tree, and log₂ of the cluster size √N.
	HalfLogN int
	// ClusterSize is √N, the number of agents each leader's recruitment
	// tree grows to.
	ClusterSize int
	// Tinner is the length in rounds of one recruitment subphase.
	Tinner int
	// T is the epoch length in rounds: Tinner · HalfLogN.
	T int
	// LeaderBiasExp is the biased-coin exponent a for leader selection;
	// each agent becomes a leader with probability 2^−a = 1/(8√N).
	LeaderBiasExp int
	// SplitBiasExp is the biased-coin exponent a for the evaluation phase;
	// an agent whose neighbor shares its color self-destructs the split
	// with probability 2^−a = 16/√N (and splits otherwise).
	SplitBiasExp int
	// Gamma is the lower bound on the fraction of agents matched per round.
	Gamma float64
	// Alpha is the half-width of the admissible population interval
	// [(1−α)N, (1+α)N].
	Alpha float64
	// UnsafeTinner acknowledges a subphase length below the paper's
	// ω(log N) requirement. Only the A2 ablation sets it; Validate then
	// accepts any Tinner ≥ 2.
	UnsafeTinner bool
}

// MinN is the smallest target size for which the paper's constants are
// non-degenerate: the split bias 16/√N must be below 1/2, i.e. √N > 32.
const MinN = 4096

// DefaultGamma is the paper's running example for the matched fraction
// (§2, "we think of the parameter γ as a constant (e.g. γ = 1/4)").
const DefaultGamma = 0.25

// DefaultAlpha is the interval half-width used throughout the experiment
// suite. The paper proves the theorem for any positive constant α and
// assumes α ≤ 1/2 without loss of generality (§4.1).
const DefaultAlpha = 0.5

// Option customizes Derive.
type Option func(*Params)

// WithTinner overrides the subphase length. The paper requires
// Tinner = ω(log N); Derive rejects values below 2·log N.
func WithTinner(tinner int) Option {
	return func(p *Params) { p.Tinner = tinner }
}

// WithUnsafeTinner overrides the subphase length WITHOUT the ω(log N)
// safety check. It exists solely for the A2 ablation, which demonstrates
// what breaks when the paper's requirement is violated (recruitment trees
// fail to fill, weakening the variance signal).
func WithUnsafeTinner(tinner int) Option {
	return func(p *Params) {
		p.Tinner = tinner
		p.UnsafeTinner = true
	}
}

// WithGamma overrides the matched-fraction lower bound γ ∈ (0, 1].
func WithGamma(gamma float64) Option {
	return func(p *Params) { p.Gamma = gamma }
}

// WithAlpha overrides the interval half-width α ∈ (0, 1/2].
func WithAlpha(alpha float64) Option {
	return func(p *Params) { p.Alpha = alpha }
}

// Derive computes the protocol parameters for target size n, applying the
// paper's defaults and any options, and validates the result.
func Derive(n int, opts ...Option) (Params, error) {
	if n < MinN {
		return Params{}, fmt.Errorf("params: N = %d below minimum %d", n, MinN)
	}
	if n&(n-1) != 0 {
		return Params{}, fmt.Errorf("params: N = %d is not a power of two", n)
	}
	logN := bits.TrailingZeros(uint(n))
	if logN%2 != 0 {
		return Params{}, fmt.Errorf("params: log N = %d must be even (N a power of four)", logN)
	}
	p := Params{
		N:        n,
		LogN:     logN,
		HalfLogN: logN / 2,
		// Paper default Tinner = log² N.
		Tinner: logN * logN,
		Gamma:  DefaultGamma,
		Alpha:  DefaultAlpha,
		// Leader probability 1/(8√N) = 2^-(3 + logN/2).
		LeaderBiasExp: 3 + logN/2,
		// Split failure probability 16/√N = 2^-(logN/2 - 4).
		SplitBiasExp: logN/2 - 4,
	}
	p.ClusterSize = 1 << p.HalfLogN
	for _, opt := range opts {
		opt(&p)
	}
	p.T = p.Tinner * p.HalfLogN
	if err := p.Validate(); err != nil {
		return Params{}, err
	}
	return p, nil
}

// Validate checks internal consistency. Derive calls it automatically; it is
// exported for Params values constructed by tests.
func (p Params) Validate() error {
	switch {
	case p.N < MinN:
		return fmt.Errorf("params: N = %d below minimum %d", p.N, MinN)
	case 1<<p.LogN != p.N:
		return fmt.Errorf("params: LogN = %d inconsistent with N = %d", p.LogN, p.N)
	case p.HalfLogN*2 != p.LogN:
		return fmt.Errorf("params: log N = %d must be even", p.LogN)
	case p.Tinner < 2:
		return fmt.Errorf("params: Tinner = %d below 2", p.Tinner)
	case !p.UnsafeTinner && p.Tinner < 2*p.LogN:
		return fmt.Errorf("params: Tinner = %d below 2·log N = %d (paper requires ω(log N); use WithUnsafeTinner for ablations)",
			p.Tinner, 2*p.LogN)
	case p.T != p.Tinner*p.HalfLogN:
		return fmt.Errorf("params: T = %d != Tinner·½logN = %d", p.T, p.Tinner*p.HalfLogN)
	case p.LeaderBiasExp <= 0 || p.SplitBiasExp <= 0:
		return fmt.Errorf("params: non-positive bias exponent (leader %d, split %d)",
			p.LeaderBiasExp, p.SplitBiasExp)
	case p.Gamma <= 0 || p.Gamma > 1:
		return fmt.Errorf("params: gamma = %v outside (0, 1]", p.Gamma)
	case p.Alpha <= 0 || p.Alpha > 0.5:
		return fmt.Errorf("params: alpha = %v outside (0, 0.5]", p.Alpha)
	}
	return nil
}

// EvalRound reports the round index (within the epoch) of the evaluation
// phase: the last round, T−1.
func (p Params) EvalRound() int { return p.T - 1 }

// IsSubphaseBoundary reports whether agents re-arm their recruiting flag at
// the end of round r, i.e. whether r ≡ −1 (mod Tinner) per Algorithm 5.
func (p Params) IsSubphaseBoundary(r int) bool {
	return (r+1)%p.Tinner == 0
}

// Subphase reports the recruitment subphase index of round r, in
// [0, HalfLogN). Round 0 (leader selection) and round T−1 (evaluation)
// belong structurally to the first and last subphase, which the paper makes
// one round shorter.
func (p Params) Subphase(r int) int {
	s := r / p.Tinner
	if s >= p.HalfLogN {
		s = p.HalfLogN - 1
	}
	return s
}

// RecruitDepthAt reports the toRecruit value assigned to an agent recruited
// in round r, per Algorithm 5: ½log N − ⌈(r+1)/Tinner⌉.
func (p Params) RecruitDepthAt(r int) int {
	return p.HalfLogN - (r+p.Tinner)/p.Tinner
}

// SplitProb reports the probability 1 − 2^−SplitBiasExp = 1 − 16/√N with
// which a matched same-color agent splits in the evaluation phase.
func (p Params) SplitProb() float64 {
	return 1 - pow2neg(p.SplitBiasExp)
}

// LeaderProb reports the probability 2^−LeaderBiasExp = 1/(8√N) of becoming
// a leader in round 0.
func (p Params) LeaderProb() float64 {
	return pow2neg(p.LeaderBiasExp)
}

// MaxTolerableK reports the paper's per-round adversary budget bound
// N^{1/4−ε} rounded down, evaluated at ε→0, i.e. ⌊N^{1/4}⌋. Experiments use
// it as the reference scale for budget sweeps.
func (p Params) MaxTolerableK() int {
	// N^{1/4} = 2^{logN/4}; logN is even, so logN/4 may be half-integral.
	quarter := float64(p.LogN) / 4
	k := 1 << int(quarter)
	if quarter != float64(int(quarter)) {
		// Multiply by √2 for odd logN/2.
		k = int(float64(k) * 1.41421356)
	}
	return k
}

// Bounds reports the admissible interval [(1−α)N, (1+α)N] as the integers
// inside the closed real interval: the lower bound rounds up and the upper
// bound rounds down, so a population of exactly (1−α)N or (1+α)N is
// admissible and nothing outside the real interval is.
func (p Params) Bounds() (lo, hi int) {
	n := float64(p.N)
	return int(math.Ceil(n * (1 - p.Alpha))), int(math.Floor(n * (1 + p.Alpha)))
}

// PredictedEquilibrium reports the finite-N fixed point of the evaluation
// drift, m* = N − 16√N.
//
// Derivation: let L ~ Binomial(m, 1/(8√N)) be the number of clusters, each
// of √N same-colored agents. Two matched colored agents share a cluster
// with probability c(L) ≈ 1/L, and the number of colored-colored matched
// pairs scales with L². The expected evaluation change is therefore
// proportional to E[L²·c(L)]·(1−q/2) − E[L²]·q/2 ≈ L̄(1−q/2) − (L̄²+L̄)·q/2
// with q = 16/√N (the split deficit) and Var L = L̄ folded into E[L²].
// Setting it to zero gives L̄* ≈ 2/q − 2 = √N/8 − 2, i.e.
// m* = 8√N·L̄* = N − 16√N.
//
// The paper's analysis treats q as asymptotically negligible, giving
// m* → N; at finite N the offset 16√N is well inside the admissible
// interval for any α > 16/√N. Experiments E7/E16 measure drift relative to
// this value (see EXPERIMENTS.md).
func (p Params) PredictedEquilibrium() int {
	return p.N - 16*p.ClusterSize
}

// String summarizes the parameter set for logs and experiment headers.
func (p Params) String() string {
	return fmt.Sprintf(
		"N=%d logN=%d T=%d Tinner=%d subphases=%d cluster=%d pLead=2^-%d pNoSplit=2^-%d γ=%.2f α=%.2f",
		p.N, p.LogN, p.T, p.Tinner, p.HalfLogN, p.ClusterSize,
		p.LeaderBiasExp, p.SplitBiasExp, p.Gamma, p.Alpha)
}

func pow2neg(a int) float64 {
	v := 1.0
	for i := 0; i < a; i++ {
		v /= 2
	}
	return v
}
