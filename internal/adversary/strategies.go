package adversary

import (
	"fmt"

	"popstab/internal/agent"
	"popstab/internal/prng"
)

// Target selects which agents a deletion strategy attacks, given full read
// access to their memory.
type Target func(agent.State) bool

// Named targets used by the strategy constructors.
var (
	// TargetAny matches every agent.
	TargetAny Target = func(agent.State) bool { return true }
	// TargetActive matches activated agents. Early in an epoch these are
	// the leaders and their first recruits — killing one prunes an entire
	// prospective cluster of up to √N agents, the strongest deletion
	// leverage the paper's accounting allows (Lemma 6).
	TargetActive Target = func(s agent.State) bool { return s.Active }
)

// TargetColor matches active agents of the given color — the color-skew
// attack discussed in the paper's Lemma 8 proof (footnote 9).
func TargetColor(c uint8) Target {
	return func(s agent.State) bool { return s.Active && s.Color == c }
}

// Deleter deletes up to its per-round quota of agents matching a target,
// choosing uniformly among matches (a worst-case adversary knows them all;
// uniform choice within an equivalence class is without loss of generality
// since matched agents are interchangeable).
type Deleter struct {
	// Label names the strategy.
	Label string
	// Match selects victims; nil means TargetAny.
	Match Target
	// scratch avoids per-round allocation.
	scratch []int
}

var _ Adversary = (*Deleter)(nil)

// NewRandomDeleter deletes arbitrary agents.
func NewRandomDeleter() *Deleter {
	return &Deleter{Label: "delete-random", Match: TargetAny}
}

// NewLeaderKiller deletes active agents — the anti-leader attack the paper's
// Attempt 1 discussion motivates.
func NewLeaderKiller() *Deleter {
	return &Deleter{Label: "delete-active", Match: TargetActive}
}

// NewColorDeleter deletes active agents of one color to skew the color
// distribution.
func NewColorDeleter(color uint8) *Deleter {
	return &Deleter{Label: fmt.Sprintf("delete-color%d", color), Match: TargetColor(color)}
}

// Name implements Adversary.
func (d *Deleter) Name() string {
	if d.Label != "" {
		return d.Label
	}
	return "deleter"
}

// Act implements Adversary.
func (d *Deleter) Act(v View, m Mutator, src *prng.Source) {
	match := d.Match
	if match == nil {
		match = TargetAny
	}
	d.scratch = v.Find(d.scratch[:0], -1, match)
	n := len(d.scratch)
	if n == 0 {
		return
	}
	// Sample victims uniformly without replacement until budget exhausts.
	quota := m.Remaining()
	if quota > n {
		quota = n
	}
	for i := 0; i < quota; i++ {
		j := i + src.Intn(n-i)
		d.scratch[i], d.scratch[j] = d.scratch[j], d.scratch[i]
		m.Delete(d.scratch[i])
	}
}

// StateGen produces the initial state for an inserted agent, given the
// adversary's view.
type StateGen func(v View, src *prng.Source) agent.State

// Inserter inserts up to its per-round quota of agents with generated
// states.
type Inserter struct {
	// Label names the strategy.
	Label string
	// Gen produces each inserted state; nil inserts zero-state agents with
	// the correct round counter.
	Gen StateGen
}

var _ Adversary = (*Inserter)(nil)

// Name implements Adversary.
func (in *Inserter) Name() string {
	if in.Label != "" {
		return in.Label
	}
	return "inserter"
}

// Act implements Adversary.
func (in *Inserter) Act(v View, m Mutator, src *prng.Source) {
	gen := in.Gen
	if gen == nil {
		gen = func(v View, _ *prng.Source) agent.State {
			return agent.State{Round: uint32(v.EpochRound())}
		}
	}
	for m.Remaining() > 0 {
		if !m.Insert(gen(v, src)) {
			return
		}
	}
}

// NewBenignInserter inserts inactive agents with the correct round counter:
// pure population inflation.
func NewBenignInserter() *Inserter {
	return &Inserter{Label: "insert-benign"}
}

// NewWrongRoundInserter inserts agents whose round counter is offset from
// the correct one — the desynchronization attack that Lemma 3 and the
// round-consistency check address.
func NewWrongRoundInserter(offset int) *Inserter {
	return &Inserter{
		Label: fmt.Sprintf("insert-offset%+d", offset),
		Gen: func(v View, src *prng.Source) agent.State {
			t := v.Params().T
			r := (v.EpochRound() + offset) % t
			if r < 0 {
				r += t
			}
			return agent.State{Round: uint32(r)}
		},
	}
}

// NewEvalFlooder inserts agents that believe they are in the evaluation
// round. Each dies at its first contact with a correct agent — and takes
// that correct agent with it (Algorithm 7), so every unit of insertion
// budget converts into roughly one extra deletion: a deletion amplifier.
func NewEvalFlooder() *Inserter {
	return &Inserter{
		Label: "insert-eval",
		Gen: func(v View, src *prng.Source) agent.State {
			return agent.State{Round: uint32(v.Params().T - 1), Active: true, Color: src.Bit()}
		},
	}
}

// FakeLeaderGen generates a recruiting cluster root of the given color with
// the correct round counter — the insertion state of the footnote-9 attack,
// shared by NewFakeLeaderInserter and the spatial ClusterInserter.
func FakeLeaderGen(color uint8) StateGen {
	return func(v View, _ *prng.Source) agent.State {
		p := v.Params()
		return agent.State{
			Round:      uint32(v.EpochRound()),
			Active:     true,
			Color:      color,
			Recruiting: true,
			ToRecruit:  int8(p.HalfLogN),
		}
	}
}

// NewFakeLeaderInserter inserts recruiting cluster roots of a fixed color
// with the correct round counter. Each seeds a cluster of up to √N agents of
// that color, skewing the color distribution to raise the same-color meeting
// probability — the "insert additional leaders all with color 0" attack from
// the paper's footnote 9.
func NewFakeLeaderInserter(color uint8) *Inserter {
	return &Inserter{
		Label: fmt.Sprintf("insert-leader%d", color),
		Gen:   FakeLeaderGen(color),
	}
}

// NewSingletonInserter inserts active agents with uniformly random colors
// and no recruitment quota: a swarm of size-1 "clusters". These dilute the
// same-color excess (they are uncorrelated with everyone), pushing the
// variance signal toward "population too large" and the population down.
func NewSingletonInserter() *Inserter {
	return &Inserter{
		Label: "insert-singleton",
		Gen: func(v View, src *prng.Source) agent.State {
			return agent.State{
				Round:  uint32(v.EpochRound()),
				Active: true,
				Color:  src.Bit(),
			}
		},
	}
}
