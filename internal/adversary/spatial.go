// Spatial (position-aware) attack strategies. On the §1.2 geometric
// communication models the adversary observes positions along with state
// (View.Pos, View.PatchPoint) and may choose where its insertions appear
// (Mutator.InsertAt) — so the natural worst-case attacks concentrate the
// budget in one ball of the topology: a patch. Experiments A7/A8 showed
// patch shielding is the governing phenomenon of spatial containment (a
// contiguous hostile patch has boundary ≪ volume, strongest in 1-D);
// this family lets experiments drive it directly and map the patch-size
// threshold (experiment A9).

package adversary

import (
	"fmt"

	"popstab/internal/match"
	"popstab/internal/population"
	"popstab/internal/prng"
)

// MatcherBinder is implemented by strategies that act on the communication
// model itself rather than on agents (RewireAdversary). The engine invokes
// BindMatcher exactly once at construction, after the matcher is bound to
// the population; Paced, the one wrapper, delegates to its inner strategy.
type MatcherBinder interface {
	BindMatcher(m match.Matcher)
}

// PatchDeleter concentrates every deletion it can afford inside one ball of
// the topology: up to its per-round quota of the agents nearest Center
// within Radius die, nearest first. Sustained over rounds this digs and
// maintains a hole — the deletion form of the patch attack (locality means
// only boundary agents can refill it). Without a spatial topology it
// degrades to uniform random deletion, so the strategy is safe to select on
// any communication model.
type PatchDeleter struct {
	// Label names the strategy.
	Label string
	// Center is the ball's center.
	Center population.Point
	// Radius is the ball's radius (arc half-length in 1-D).
	Radius float64

	fallback *Deleter
}

var _ Adversary = (*PatchDeleter)(nil)

// NewPatchDeleter builds the patch deletion attack on the ball of radius r
// around center.
func NewPatchDeleter(center population.Point, r float64) *PatchDeleter {
	return &PatchDeleter{Center: center, Radius: r, fallback: NewRandomDeleter()}
}

// Name implements Adversary.
func (d *PatchDeleter) Name() string {
	if d.Label != "" {
		return d.Label
	}
	return fmt.Sprintf("delete-patch(r=%.3g)", d.Radius)
}

// Act implements Adversary.
func (d *PatchDeleter) Act(v View, m Mutator, src *prng.Source) {
	if !v.HasSpace() {
		if d.fallback == nil {
			d.fallback = NewRandomDeleter()
		}
		d.fallback.Act(v, m, src)
		return
	}
	m.DeleteNear(d.Center, d.Radius, -1)
}

// ClusterInserter seeds a patch: up to its per-round quota of generated
// agents appear at adversary-chosen points within Radius of Center — fake
// cluster roots grown into a monochrome patch. (The rogue extension's
// clustered infiltration queues placements drawn from the same PatchPoint
// geometry.) Without a spatial topology the positions are ignored and the
// strategy is a plain Inserter.
type ClusterInserter struct {
	// Label names the strategy.
	Label string
	// Center is the patch center.
	Center population.Point
	// Radius is the patch radius (arc half-length in 1-D).
	Radius float64
	// Gen produces each inserted state; nil inserts fake recruiting leaders
	// of color 0 (the footnote-9 attack, now spatially concentrated).
	Gen StateGen
}

var _ Adversary = (*ClusterInserter)(nil)

// NewClusterInserter builds the patch-seeding insertion attack: states from
// gen (nil = fake color-0 leaders), placed within r of center.
func NewClusterInserter(center population.Point, r float64, gen StateGen) *ClusterInserter {
	return &ClusterInserter{Center: center, Radius: r, Gen: gen}
}

// Name implements Adversary.
func (in *ClusterInserter) Name() string {
	if in.Label != "" {
		return in.Label
	}
	return fmt.Sprintf("insert-cluster(r=%.3g)", in.Radius)
}

// Act implements Adversary.
func (in *ClusterInserter) Act(v View, m Mutator, src *prng.Source) {
	gen := in.Gen
	if gen == nil {
		gen = FakeLeaderGen(0)
	}
	for m.Remaining() > 0 {
		pt := v.PatchPoint(in.Center, in.Radius, src)
		if !m.InsertAt(gen(v, src), pt) {
			return
		}
	}
}

// PatchCombo is the combined patch attack: dig the hole and refill it with
// hostile insertions, both in the same ball. Running the two halves in
// turn against one budget would starve the second — PatchDeleter's
// budget-bounded DeleteNear consumes everything whenever the ball is
// non-empty — so PatchCombo splits each turn explicitly: the favored half acts first under a cap of half the
// remaining budget (rounded up), the other half takes the rest, and the
// favor alternates on every activation so a paced K = 1 budget (one
// alteration per action) still serves both halves over time.
type PatchCombo struct {
	// Label names the strategy.
	Label string
	// Deleter and Inserter are the two halves, sharing the ball.
	Deleter  *PatchDeleter
	Inserter *ClusterInserter

	// turn counts activations; its parity picks the favored half.
	turn uint64
}

var _ Adversary = (*PatchCombo)(nil)

// NewPatchCombo builds the combined attack on the ball of radius r around
// center, with insertion states from gen (nil = fake color-0 leaders).
func NewPatchCombo(center population.Point, r float64, gen StateGen) *PatchCombo {
	return &PatchCombo{
		Deleter:  NewPatchDeleter(center, r),
		Inserter: NewClusterInserter(center, r, gen),
	}
}

// Name implements Adversary.
func (pc *PatchCombo) Name() string {
	if pc.Label != "" {
		return pc.Label
	}
	return fmt.Sprintf("patch-combo(r=%.3g)", pc.Deleter.Radius)
}

// Act implements Adversary.
func (pc *PatchCombo) Act(v View, m Mutator, src *prng.Source) {
	first, second := Adversary(pc.Deleter), Adversary(pc.Inserter)
	if pc.turn%2 == 1 {
		first, second = second, first
	}
	pc.turn++
	first.Act(v, &cappedMutator{m: m, cap: (m.Remaining() + 1) / 2}, src)
	second.Act(v, m, src)
	// Leftovers (e.g. an emptied ball left the deleter nothing to take) go
	// back to the favored half.
	if m.Remaining() > 0 {
		first.Act(v, m, src)
	}
}

// RewireAdversary owns the long-range link assignment of a SmallWorld
// topology: agents within Radius of Center are pinned to (Mode RewireDeny)
// or forced onto (RewireForce) long-range candidates, overriding the β coin.
// Radius < 0 applies the directive to every agent. Denying rewiring inside a
// hostile patch re-shields it — long-range contacts are the only mechanism
// that reaches a patch interior in 1-D (A8), and this strategy takes that
// mechanism away without spending any alteration budget: link assignment is
// part of the communication model, which the worst-case adversary of the
// §1.2 discussion controls, not an insertion or deletion.
//
// The force direction additionally supports a target ball (HasTarget):
// forced agents draw their long-range candidates from the agents inside
// [TargetCenter, TargetRadius] instead of uniformly — the adversary drags
// honest agents' links INTO a patch, feeding them to its residents (see
// match.RewireTargeter and NewRewireForcer).
//
// The strategy needs the matcher itself, so it implements MatcherBinder; on
// a non-SmallWorld matcher it binds to nothing and is inert. Its Act is a
// no-op (the directive is positional and needs no per-round recomputation),
// which also means it works at budget K = 0.
type RewireAdversary struct {
	// Label names the strategy.
	Label string
	// Center is the controlled region's center.
	Center population.Point
	// Radius is the controlled region's radius; negative = all agents.
	Radius float64
	// Directive is applied to agents inside the region (RewireDeny or
	// RewireForce); agents outside stay on the β coin.
	Directive match.RewireMode
	// TargetCenter and TargetRadius are the ball forced candidates are
	// drawn from; consulted only when HasTarget is set.
	TargetCenter population.Point
	// TargetRadius is the target ball's radius (arc half-length in 1-D).
	TargetRadius float64
	// HasTarget enables candidate targeting for the force direction.
	HasTarget bool

	sw *match.SmallWorld
}

var (
	_ Adversary              = (*RewireAdversary)(nil)
	_ MatcherBinder          = (*RewireAdversary)(nil)
	_ match.RewireController = (*RewireAdversary)(nil)
	_ match.RewireTargeter   = (*RewireAdversary)(nil)
)

// NewRewireDenier pins agents within r of center to their ring neighborhood
// (r < 0: the whole population — SmallWorld degenerates to Ring).
func NewRewireDenier(center population.Point, r float64) *RewireAdversary {
	return &RewireAdversary{Center: center, Radius: r, Directive: match.RewireDeny}
}

// NewRewireForcer rewires EVERY agent unconditionally and drags the
// long-range candidates into the ball of radius r around center: each round
// the whole population proposes to the patch residents, so a hostile patch
// (clustered rogues, a monochrome fake-leader colony) meets a steady stream
// of honest agents instead of only its 1-D boundary. Like the denier it
// spends no alteration budget and works at K = 0; it is inert off
// SmallWorld.
func NewRewireForcer(center population.Point, r float64) *RewireAdversary {
	return &RewireAdversary{
		Radius:       -1, // force the whole population's links
		Directive:    match.RewireForce,
		TargetCenter: center,
		TargetRadius: r,
		HasTarget:    true,
	}
}

// Name implements Adversary.
func (ra *RewireAdversary) Name() string {
	if ra.Label != "" {
		return ra.Label
	}
	verb := "force"
	if ra.Directive == match.RewireDeny {
		verb = "deny"
	}
	if ra.HasTarget {
		return fmt.Sprintf("rewire-%s-into(r=%.3g)", verb, ra.TargetRadius)
	}
	if ra.Radius < 0 {
		return fmt.Sprintf("rewire-%s-all", verb)
	}
	return fmt.Sprintf("rewire-%s(r=%.3g)", verb, ra.Radius)
}

// BindMatcher implements MatcherBinder: on a SmallWorld matcher the strategy
// installs itself as the RewireController; any other matcher leaves it
// inert.
func (ra *RewireAdversary) BindMatcher(m match.Matcher) {
	if sw, ok := m.(*match.SmallWorld); ok {
		ra.sw = sw
		sw.SetRewireController(ra)
	}
}

// Act implements Adversary: a no-op — the positional directive does all the
// work from the matching phase.
func (ra *RewireAdversary) Act(View, Mutator, *prng.Source) {}

// Mode implements match.RewireController. It is a pure function of the
// strategy's construction-time fields, satisfying the controller's
// concurrent-read contract.
func (ra *RewireAdversary) Mode(i int, pt population.Point) match.RewireMode {
	if ra.Radius < 0 || ra.sw.Dist2(pt, ra.Center) <= ra.Radius*ra.Radius {
		return ra.Directive
	}
	return match.RewireDefault
}

// RewireTarget implements match.RewireTargeter: forced candidates are drawn
// from the target ball when one is configured.
func (ra *RewireAdversary) RewireTarget() (population.Point, float64, bool) {
	return ra.TargetCenter, ra.TargetRadius, ra.HasTarget
}
