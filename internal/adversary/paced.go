package adversary

import (
	"fmt"

	"popstab/internal/match"
	"popstab/internal/prng"
)

// Paced throttles an inner strategy to act only once every Every rounds.
//
// The paper's lemmas budget the adversary per epoch: Lemma 3's induction
// assumes K·T ≤ N^{1/4}/8, i.e. the per-round bound K = O(N^{1/4−ε}) is
// consumed by the ε absorbing the epoch length T = Θ̃(log³N). At laptop-scale
// N the un-paced product K·T would dwarf N^{1/4}, so experiments express
// budgets as alterations-per-epoch and use Paced to spread them: an inner
// strategy with per-round budget K acting every T/j rounds spends j·K per
// epoch.
type Paced struct {
	// Every is the action period in rounds (≥ 1).
	Every uint64
	// Inner is the throttled strategy.
	Inner Adversary
}

var _ Adversary = (*Paced)(nil)

// NewPaced wraps inner to act every `every` rounds.
func NewPaced(every uint64, inner Adversary) *Paced {
	if every == 0 {
		every = 1
	}
	return &Paced{Every: every, Inner: inner}
}

// Name implements Adversary.
func (p *Paced) Name() string {
	return fmt.Sprintf("%s/every%d", p.Inner.Name(), p.Every)
}

// Act implements Adversary.
func (p *Paced) Act(v View, m Mutator, src *prng.Source) {
	if v.GlobalRound()%p.Every != 0 {
		return
	}
	p.Inner.Act(v, m, src)
}

// BindMatcher implements MatcherBinder by delegation, so pacing a
// matcher-bound strategy (RewireAdversary) keeps its binding.
func (p *Paced) BindMatcher(m match.Matcher) {
	if mb, ok := p.Inner.(MatcherBinder); ok {
		mb.BindMatcher(m)
	}
}

// PerEpoch distributes a per-epoch alteration budget across an epoch: given
// the epoch length T and a desired budget of perEpoch alterations per epoch
// under a per-round cap of K, it returns the pacing period. The engine's
// per-round budget K and the returned period together deliver (approximately)
// the requested per-epoch rate.
func PerEpoch(epochLen, perEpoch, k int) uint64 {
	if perEpoch <= 0 || k <= 0 {
		return uint64(epochLen) + 1 // effectively never within one epoch
	}
	// Number of K-sized actions needed: ⌈perEpoch/k⌉, without the
	// overflow of perEpoch+k−1 near the top of the int range.
	actions := perEpoch / k
	if perEpoch%k != 0 {
		actions++
	}
	period := epochLen / actions
	if period < 1 {
		period = 1
	}
	return uint64(period)
}
