package adversary

import (
	"popstab/internal/agent"
	"popstab/internal/population"
	"popstab/internal/prng"
)

// ColorSkewer is the strongest color-distribution attack within budget: it
// splits its budget between deleting cluster roots of one color and
// inserting fake roots of the other, maximally biasing the same-color
// meeting probability. Direction up (inflate) biases toward a monoculture
// (more same-color meetings → more splits); direction down inserts
// singleton clusters to dilute the color correlation (fewer same-color
// meetings relative to N-equilibrium → more deaths... relatively fewer
// splits).
type ColorSkewer struct {
	// Up selects the attack direction: true pushes the population above N,
	// false below.
	Up bool

	deleter  *Deleter
	inserter *Inserter
}

var _ Adversary = (*ColorSkewer)(nil)

// NewColorSkewer builds the attack for the given direction.
func NewColorSkewer(up bool) *ColorSkewer {
	cs := &ColorSkewer{Up: up}
	if up {
		cs.deleter = NewColorDeleter(1)
		cs.inserter = NewFakeLeaderInserter(0)
	} else {
		cs.inserter = NewSingletonInserter()
	}
	return cs
}

// Name implements Adversary.
func (cs *ColorSkewer) Name() string {
	if cs.Up {
		return "skew-up"
	}
	return "skew-down"
}

// Act implements Adversary.
func (cs *ColorSkewer) Act(v View, m Mutator, src *prng.Source) {
	if cs.Up {
		// Spend half the budget deleting color-1 roots early in the epoch,
		// the rest inserting color-0 roots. A budget of 1 has no half to
		// spend, so it skips the scan for victims.
		if half := m.Remaining() / 2; half > 0 {
			spent := 0
			cs.deleter.scratch = v.Find(cs.deleter.scratch[:0], -1, cs.deleter.Match)
			n := len(cs.deleter.scratch)
			for i := 0; i < n && spent < half; i++ {
				j := i + src.Intn(n-i)
				cs.deleter.scratch[i], cs.deleter.scratch[j] = cs.deleter.scratch[j], cs.deleter.scratch[i]
				if m.Delete(cs.deleter.scratch[i]) {
					spent++
				}
			}
		}
		cs.inserter.Act(v, m, src)
		return
	}
	cs.inserter.Act(v, m, src)
}

// Greedy estimates the population's displacement from N each round and
// pushes in the same direction (away from the target), switching between
// the skew-up and skew-down machinery plus the eval-flood deletion
// amplifier. It is the strongest single heuristic adversary in the library
// and the default stress strategy in experiments.
type Greedy struct {
	up   *ColorSkewer
	down *ColorSkewer
	amp  *Inserter
}

var _ Adversary = (*Greedy)(nil)

// NewGreedy builds the adaptive strategy.
func NewGreedy() *Greedy {
	return &Greedy{
		up:   NewColorSkewer(true),
		down: NewColorSkewer(false),
		amp:  NewEvalFlooder(),
	}
}

// Name implements Adversary.
func (g *Greedy) Name() string { return "greedy" }

// Act implements Adversary.
func (g *Greedy) Act(v View, m Mutator, src *prng.Source) {
	n := v.Params().N
	cur := v.Len()
	switch {
	case cur >= n:
		// Push further up.
		g.up.Act(v, m, src)
	case cur <= n-n/64:
		// Clearly below: amplify deletions.
		half := m.Remaining() / 2
		for i := 0; i < half; i++ {
			g.amp.Act(v, &cappedMutator{m: m, cap: 1}, src)
		}
		g.down.Act(v, m, src)
	default:
		g.down.Act(v, m, src)
	}
}

// cappedMutator restricts a Mutator to a sub-budget.
type cappedMutator struct {
	m    Mutator
	cap  int
	used int
}

var _ Mutator = (*cappedMutator)(nil)

func (c *cappedMutator) Delete(i int) bool {
	if c.used >= c.cap {
		return false
	}
	if c.m.Delete(i) {
		c.used++
		return true
	}
	return false
}

func (c *cappedMutator) Insert(s agent.State) bool {
	if c.used >= c.cap {
		return false
	}
	if c.m.Insert(s) {
		c.used++
		return true
	}
	return false
}

func (c *cappedMutator) InsertAt(s agent.State, pt population.Point) bool {
	if c.used >= c.cap {
		return false
	}
	if c.m.InsertAt(s, pt) {
		c.used++
		return true
	}
	return false
}

func (c *cappedMutator) DeleteNear(center population.Point, r float64, limit int) int {
	quota := c.cap - c.used
	if quota <= 0 {
		return 0
	}
	if limit >= 0 && limit < quota {
		quota = limit
	}
	n := c.m.DeleteNear(center, r, quota)
	c.used += n
	return n
}

func (c *cappedMutator) Remaining() int {
	r := c.cap - c.used
	if mr := c.m.Remaining(); mr < r {
		r = mr
	}
	return r
}
