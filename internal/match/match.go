// Package match implements the random-matching communication schedulers of
// the synchronous population model (paper §2, "Connectivity").
//
// In each round, pairs of agents that may communicate are selected by a
// uniformly random matching covering at least a γ fraction of the surviving
// agents; matchings in different rounds are independent, and the adversary
// does not learn the schedule in advance. The package also provides a full
// matching and a Bernoulli-participation variant used by the scheduler
// ablation (experiment A4), and a sequential scheduler approximating the
// classical asynchronous population-protocol model of [AAE07].
package match

import (
	"fmt"

	"popstab/internal/prng"
)

// Unmatched marks an agent with no neighbor this round in a Pairing.
const Unmatched int32 = -1

// Pairing is the outcome of one round of scheduling: Nbr[i] is the index of
// agent i's neighbor, or Unmatched. A valid pairing is an involution:
// Nbr[Nbr[i]] == i for every matched i.
type Pairing struct {
	Nbr []int32

	// perm is scratch space reused across rounds to avoid per-round
	// allocation.
	perm []int32
}

// Reset prepares the pairing for a population of n agents, growing buffers
// as needed and marking every agent unmatched.
func (p *Pairing) Reset(n int) {
	p.resize(n)
	for i := range p.Nbr {
		p.Nbr[i] = Unmatched
	}
}

// resize grows the buffers to n agents and leaves Nbr's contents as they
// are: for samplers that write every entry themselves. The first sizing is
// exact; a regrowth leaves n/16 of slack, so a population that passes its
// peak one insertion at a time does not reallocate them every round.
func (p *Pairing) resize(n int) {
	if cap(p.Nbr) < n {
		c := n
		if p.Nbr != nil {
			c += n / 16
		}
		p.Nbr = make([]int32, n, c)
		p.perm = make([]int32, n, c)
	}
	p.Nbr = p.Nbr[:n]
	p.perm = p.perm[:n]
}

// Matched reports the number of matched agents (twice the number of pairs).
func (p *Pairing) Matched() int {
	m := 0
	for _, v := range p.Nbr {
		if v != Unmatched {
			m++
		}
	}
	return m
}

// Validate checks the involution property. It is used by tests and by the
// engine's paranoid mode.
func (p *Pairing) Validate() error {
	for i, j := range p.Nbr {
		if j == Unmatched {
			continue
		}
		if j < 0 || int(j) >= len(p.Nbr) {
			return fmt.Errorf("match: neighbor %d of agent %d out of range", j, i)
		}
		if int(j) == i {
			return fmt.Errorf("match: agent %d matched to itself", i)
		}
		if p.Nbr[j] != int32(i) {
			return fmt.Errorf("match: asymmetric pair (%d -> %d -> %d)", i, j, p.Nbr[j])
		}
	}
	return nil
}

// Scheduler samples one round's communication pairing.
type Scheduler interface {
	// Sample fills p with a random pairing over n agents using src.
	Sample(n int, src *prng.Source, p *Pairing)
	// MinFraction reports the guaranteed lower bound γ on the fraction of
	// agents matched each round (0 for schedulers with no guarantee).
	MinFraction() float64
	// Name identifies the scheduler in experiment output.
	Name() string
}

// Uniform matches exactly ⌊γ·n/2⌋ uniformly random disjoint pairs each
// round: a uniformly random matching covering (as nearly as divisibility
// allows) a γ fraction of agents. This is the model's canonical scheduler.
type Uniform struct {
	// Gamma is the target matched fraction in (0, 1].
	Gamma float64
}

var _ Scheduler = Uniform{}

// NewUniform validates gamma and returns a Uniform scheduler.
func NewUniform(gamma float64) (Uniform, error) {
	if gamma <= 0 || gamma > 1 {
		return Uniform{}, fmt.Errorf("match: gamma %v outside (0, 1]", gamma)
	}
	return Uniform{Gamma: gamma}, nil
}

// MinFraction reports γ (up to rounding in small populations).
func (u Uniform) MinFraction() float64 { return u.Gamma }

// Name reports "uniform(γ)".
func (u Uniform) Name() string { return fmt.Sprintf("uniform(%.2f)", u.Gamma) }

// Sample draws the matching: it partially shuffles the identity permutation
// and pairs consecutive entries of the prefix, which yields a uniformly
// random matching of the requested size in O(γn) time.
func (u Uniform) Sample(n int, src *prng.Source, p *Pairing) {
	pairs := int(u.Gamma * float64(n) / 2)
	samplePrefixPairs(n, pairs, src, p)
}

// Full matches every agent (one unmatched leftover when n is odd). It is the
// γ = 1 limit and the fastest mixing scheduler.
type Full struct{}

var _ Scheduler = Full{}

// MinFraction reports 1.
func (Full) MinFraction() float64 { return 1 }

// Name reports "full".
func (Full) Name() string { return "full" }

// Sample pairs a uniformly random perfect matching.
func (Full) Sample(n int, src *prng.Source, p *Pairing) {
	samplePrefixPairs(n, n/2, src, p)
}

// Bernoulli has each agent independently opt in with probability Participate,
// then pairs the participants uniformly (dropping one leftover if odd). The
// matched fraction concentrates around Participate but carries binomial
// noise; it provides no hard per-round guarantee, modeling a slightly
// weaker scheduler for the A4 ablation.
type Bernoulli struct {
	// Participate is each agent's independent participation probability.
	Participate float64
}

var _ Scheduler = Bernoulli{}

// NewBernoulli validates p and returns a Bernoulli scheduler.
func NewBernoulli(p float64) (Bernoulli, error) {
	if p <= 0 || p > 1 {
		return Bernoulli{}, fmt.Errorf("match: participation %v outside (0, 1]", p)
	}
	return Bernoulli{Participate: p}, nil
}

// MinFraction reports 0: no hard guarantee.
func (Bernoulli) MinFraction() float64 { return 0 }

// Name reports "bernoulli(p)".
func (b Bernoulli) Name() string { return fmt.Sprintf("bernoulli(%.2f)", b.Participate) }

// Sample flips one coin per agent and pairs the participants uniformly.
func (b Bernoulli) Sample(n int, src *prng.Source, p *Pairing) {
	p.Reset(n)
	part := p.perm[:0]
	for i := 0; i < n; i++ {
		if src.Prob(b.Participate) {
			part = append(part, int32(i))
		}
	}
	src.ShuffleInt32(part)
	for i := 0; i+1 < len(part); i += 2 {
		a, c := part[i], part[i+1]
		p.Nbr[a] = c
		p.Nbr[c] = a
	}
}

// Sequential approximates the asynchronous random scheduler of [AAE07]: per
// synchronous tick it schedules exactly one uniformly random interaction
// pair. Drift dynamics are PairsPerRound-times slower; it exists to show the
// protocol's synchrony requirement (the paper's protocol is *not* claimed to
// work here — see the A4 ablation).
type Sequential struct{}

var _ Scheduler = Sequential{}

// MinFraction reports 0.
func (Sequential) MinFraction() float64 { return 0 }

// Name reports "sequential".
func (Sequential) Name() string { return "sequential" }

// Sample matches a single uniformly random pair.
func (Sequential) Sample(n int, src *prng.Source, p *Pairing) {
	samplePrefixPairs(n, 1, src, p)
}

// samplePrefixPairs fills p with a matching of up to pairs pairs over n
// agents: it shuffles a prefix of 2·pairs indices uniformly and links
// consecutive entries. The prefix of a truncated Fisher-Yates shuffle is a
// uniformly random ordered 2k-subset, so consecutive pairing yields a
// uniformly random matching of size k. perm is a permutation of [0, n), so
// one pass over it — linking the prefix, marking the tail Unmatched —
// writes every Nbr entry exactly once. The shuffle leaves every tail index
// it did not swap in place, so those writes are sequential.
func samplePrefixPairs(n, pairs int, src *prng.Source, p *Pairing) {
	pairs = min(pairs, n/2)
	if pairs <= 0 {
		p.Reset(n)
		return
	}
	p.resize(n)
	perm, nbr := p.perm, p.Nbr
	for i := range perm {
		perm[i] = int32(i)
	}
	src.PartialShuffleInt32(perm, 2*pairs)
	for i := 0; i < 2*pairs; i += 2 {
		a, b := perm[i], perm[i+1]
		nbr[a] = b
		nbr[b] = a
	}
	for _, a := range perm[2*pairs:] {
		nbr[a] = Unmatched
	}
}
