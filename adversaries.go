package popstab

import (
	"fmt"
	"sort"

	"popstab/internal/adversary"
)

// adversaries is the registry of position-blind strategies Spec.Adversary
// names (p is available for strategies that need protocol geometry).
// "none" is listed so the names a CLI accepts and lists agree; the spec
// resolves it to no adversary at all.
var adversaries = map[string]func(p Params) adversary.Adversary{
	"none":          func(Params) adversary.Adversary { return adversary.None{} },
	"delete-random": func(Params) adversary.Adversary { return adversary.NewRandomDeleter() },
	// Deletes activated agents — early in an epoch these are the cluster
	// roots, so each deletion prunes up to √N prospective recruits.
	"delete-active": func(Params) adversary.Adversary { return adversary.NewLeaderKiller() },
	// Deletes active agents of one color, skewing the color distribution
	// (the attack from the paper's footnote 9).
	"delete-color0": func(Params) adversary.Adversary { return adversary.NewColorDeleter(0) },
	"delete-color1": func(Params) adversary.Adversary { return adversary.NewColorDeleter(1) },
	// Inserts inactive agents with the correct round counter.
	"insert-benign": func(Params) adversary.Adversary { return adversary.NewBenignInserter() },
	// Inserts recruiting cluster roots of a fixed color.
	"insert-leader0": func(Params) adversary.Adversary { return adversary.NewFakeLeaderInserter(0) },
	"insert-leader1": func(Params) adversary.Adversary { return adversary.NewFakeLeaderInserter(1) },
	// Inserts colored singleton "clusters" that dilute the color
	// correlation, biasing the variance signal toward "population too
	// large".
	"insert-singleton": func(Params) adversary.Adversary { return adversary.NewSingletonInserter() },
	// Inserts agents that believe they are in the evaluation round; each
	// dies at first contact and takes one correct agent along (a deletion
	// amplifier).
	"insert-eval": func(Params) adversary.Adversary { return adversary.NewEvalFlooder() },
	// Inserts agents whose round counter is offset from the majority's —
	// the desynchronization attack addressed by Lemma 3.
	"insert-offset": func(p Params) adversary.Adversary { return adversary.NewWrongRoundInserter(p.T / 2) },
	// Combine deletion and insertion to push the color distribution in one
	// direction (up = inflate the population).
	"skew-up":   func(Params) adversary.Adversary { return adversary.NewColorSkewer(true) },
	"skew-down": func(Params) adversary.Adversary { return adversary.NewColorSkewer(false) },
	// Adaptively pushes the population away from the target with the
	// strongest sub-strategy for the current state.
	"greedy": func(Params) adversary.Adversary { return adversary.NewGreedy() },
}

// spatialAdversaries is the registry of the patch-attack family, each
// parameterized by the patch ball (Spec.Patch). The strategies are safe to
// select on any topology: delete-patch degrades to uniform deletion,
// cluster-leader* to unplaced insertion, and the rewire strategies are inert
// off smallworld.
var spatialAdversaries = map[string]func(b BallSpec) adversary.Adversary{
	// Concentrates every deletion inside the ball, nearest agents first —
	// the deletion form of the patch attack.
	"delete-patch": func(b BallSpec) adversary.Adversary {
		return adversary.NewPatchDeleter(b.center(), b.R)
	},
	// Seed a patch of fake recruiting leaders of one color at
	// adversary-chosen points inside the ball — the footnote-9 attack,
	// spatially concentrated.
	"cluster-leader0": func(b BallSpec) adversary.Adversary { return clusterInserter(b, 0) },
	"cluster-leader1": func(b BallSpec) adversary.Adversary { return clusterInserter(b, 1) },
	// Owns the smallworld long-range link assignment: agents inside the
	// ball are pinned to their ring neighborhood, re-shielding a patch from
	// the long-range contacts that would otherwise reach its interior.
	// Costs no alteration budget and works at K = 0.
	"rewire-deny": func(b BallSpec) adversary.Adversary {
		return adversary.NewRewireDenier(b.center(), b.R)
	},
	// rewire-deny with every agent pinned.
	"rewire-deny-all": func(b BallSpec) adversary.Adversary {
		return adversary.NewRewireDenier(b.center(), -1)
	},
	// Drags honest agents' long-range links INTO the patch, so the whole
	// population proposes to the patch residents instead of only its
	// boundary — the offensive complement of rewire-deny. Costs no
	// alteration budget and works at K = 0.
	"rewire-force": func(b BallSpec) adversary.Adversary {
		return adversary.NewRewireForcer(b.center(), b.R)
	},
	// The combined patch attack: dig the hole and refill it with fake
	// leaders, both in the same ball, budget split between the halves
	// (alternating favor, so it works under K=1 pacing too).
	"patch-combo": func(b BallSpec) adversary.Adversary {
		return adversary.NewPatchCombo(b.center(), b.R, nil)
	},
}

// clusterInserter seeds fake recruiting leaders of the given color inside
// the ball.
func clusterInserter(b BallSpec, color uint8) adversary.Adversary {
	in := adversary.NewClusterInserter(b.center(), b.R, adversary.FakeLeaderGen(color))
	in.Label = fmt.Sprintf("insert-cluster-leader%d(r=%.3g)", color, b.R)
	return in
}

// AdversaryNames lists the position-blind strategy names Spec.Adversary
// accepts, sorted.
func AdversaryNames() []string { return sortedKeys(adversaries) }

// SpatialAdversaryNames lists the patch-family strategy names Spec.Adversary
// accepts, sorted.
func SpatialAdversaryNames() []string { return sortedKeys(spatialAdversaries) }

func sortedKeys[F any](m map[string]F) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
