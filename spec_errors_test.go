package popstab_test

import (
	"math"
	"strings"
	"testing"

	"popstab"
)

// TestSpecNormalizeErrors tables the rejection surface of Spec.Normalize:
// bad registry names, out-of-range parameters, and axis combinations that
// could never build. Every case must fail at normalize (and therefore hash)
// time, so the serving layer can refuse the submission before a session is
// ever constructed.
func TestSpecNormalizeErrors(t *testing.T) {
	base := popstab.Spec{N: 4096, Tinner: 24, Seed: 7}
	cases := []struct {
		name string
		mut  func(*popstab.Spec)
		want string // substring of the error
	}{
		{"zero N", func(s *popstab.Spec) { s.N = 0 }, "N"},
		{"N below minimum", func(s *popstab.Spec) { s.N = 64 }, "N"},
		{"N not a power of four", func(s *popstab.Spec) { s.N = 5000 }, "N"},
		{"Gamma above one", func(s *popstab.Spec) { s.Gamma = 1.5 }, "gamma"},
		{"Alpha above half", func(s *popstab.Spec) { s.Alpha = 0.9 }, "alpha"},
		{"unknown protocol", func(s *popstab.Spec) { s.Protocol = "nope" }, "protocol"},
		{"unknown topology", func(s *popstab.Spec) { s.Topology = "klein-bottle" }, "topology"},
		{"unknown adversary", func(s *popstab.Spec) { s.Adversary = "mysterious" }, "adversary"},
		{"DaughterSpread on mixed", func(s *popstab.Spec) { s.DaughterSpread = 2 }, "DaughterSpread"},
		{"negative DaughterSpread", func(s *popstab.Spec) { s.Topology = "torus"; s.DaughterSpread = -1 }, "DaughterSpread"},
		{"RewireProb off smallworld", func(s *popstab.Spec) { s.Topology = "ring"; s.RewireProb = 0.2 }, "RewireProb"},
		{"rogue cluster on mixed", func(s *popstab.Spec) {
			s.Rogue = &popstab.RogueSpec{ReplicateEvery: 4, DetectProb: 1, Cluster: &popstab.BallSpec{R: 0.1}}
		}, "Rogue.Cluster"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := base
			tc.mut(&sp)
			if _, err := sp.Normalize(); err == nil {
				t.Fatalf("Normalize accepted %+v", sp)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Normalize error %q does not mention %q", err, tc.want)
			}
			// Hash goes through Normalize, so the spec must not hash either:
			// an unbuildable spec has no content address.
			if h, err := sp.Hash(); err == nil {
				t.Errorf("Hash accepted the spec: %s", h)
			}
		})
	}
}

// TestSpecNormalizeAcceptsResolvedConflicts pins the complement: the same
// axis values are fine on topologies that support them.
func TestSpecNormalizeAcceptsResolvedConflicts(t *testing.T) {
	cases := []popstab.Spec{
		{N: 4096, Tinner: 24, Seed: 7, Topology: "torus", DaughterSpread: 2},
		{N: 4096, Tinner: 24, Seed: 7, Topology: "smallworld", RewireProb: 0.2},
		{N: 4096, Tinner: 24, Seed: 7, Topology: "grid",
			Rogue: &popstab.RogueSpec{ReplicateEvery: 4, DetectProb: 1, Cluster: &popstab.BallSpec{X: 0.5, Y: 0.5, R: 0.1}}},
		// The unit square is closed: a ball on its corner is on it.
		{N: 4096, Tinner: 24, Seed: 7, Topology: "torus", Adversary: "patch-combo", K: 1,
			Patch: &popstab.BallSpec{X: 1, Y: 0}},
	}
	for _, sp := range cases {
		if _, err := sp.Normalize(); err != nil {
			t.Errorf("Normalize rejected %+v: %v", sp, err)
		}
	}
}

// TestSpecRejectsUnbuildable tables specs whose values are each in range for
// the JSON schema but describe no run: every one must fail Normalize, Hash
// and the build alike, so the serving layer answers 422 instead of
// admitting a job that can only fail in its runner.
func TestSpecRejectsUnbuildable(t *testing.T) {
	base := popstab.Spec{N: 4096, Tinner: 24, Seed: 7, Workers: 1}
	rogue := func(rs popstab.RogueSpec) func(*popstab.Spec) {
		return func(s *popstab.Spec) { s.Rogue = &rs }
	}
	patch := func(topo, adv string, b popstab.BallSpec) func(*popstab.Spec) {
		return func(s *popstab.Spec) {
			s.Topology, s.Adversary, s.Patch, s.K, s.PerEpochBudget = topo, adv, &b, 4, 64
		}
	}
	cluster := func(b popstab.BallSpec) func(*popstab.Spec) {
		return func(s *popstab.Spec) {
			s.Topology = "torus"
			s.Rogue = &popstab.RogueSpec{ReplicateEvery: 4, DetectProb: 1, InitialRogues: 16, Cluster: &b}
		}
	}
	cases := []struct {
		name string
		mut  func(*popstab.Spec)
		want string
	}{
		{"DetectProb above one", rogue(popstab.RogueSpec{ReplicateEvery: 4, DetectProb: 2}), "DetectProb"},
		{"ReplicateEvery zero", rogue(popstab.RogueSpec{DetectProb: 1}), "ReplicateEvery"},
		{"MessageBits 5", func(s *popstab.Spec) { s.MessageBits = 5 }, "MessageBits"},
		{"RewireProb above one", func(s *popstab.Spec) { s.Topology = "smallworld"; s.RewireProb = 2 }, "RewireProb"},
		{"RewireProb negative", func(s *popstab.Spec) { s.Topology = "smallworld"; s.RewireProb = -0.5 }, "RewireProb"},
		{"negative K", func(s *popstab.Spec) { s.Adversary = "greedy"; s.K = -1 }, "K"},
		{"negative K without adversary", func(s *popstab.Spec) { s.K = -1 }, "K"},
		{"negative Workers", func(s *popstab.Spec) { s.Workers = -1 }, "Workers"},
		{"negative InitialSize", func(s *popstab.Spec) { s.InitialSize = -1 }, "InitialSize"},
		{"negative InitialRogues", rogue(popstab.RogueSpec{ReplicateEvery: 4, DetectProb: 1, InitialRogues: -1}), "rogue"},
		{"negative cluster radius", func(s *popstab.Spec) {
			s.Topology = "torus"
			s.Rogue = &popstab.RogueSpec{ReplicateEvery: 4, DetectProb: 1, Cluster: &popstab.BallSpec{X: 0.5, Y: 0.5, R: -0.1}}
		}, "radius"},
		// Builds the same unpaced run as 0 but would hash differently.
		{"negative PerEpochBudget", func(s *popstab.Spec) { s.Adversary = "greedy"; s.K = 1; s.PerEpochBudget = -8 }, "PerEpochBudget"},
		// Balls off the unit square: a radius-0 ball places agents exactly
		// at its center, and an infinite radius places them at NaN.
		{"patch center off square", patch("torus", "cluster-leader0", popstab.BallSpec{X: -1}), "Patch"},
		{"patch center off square on grid", patch("grid", "patch-combo", popstab.BallSpec{X: 0.5, Y: 1.5}), "Patch"},
		{"patch center off ring", patch("ring", "patch-combo", popstab.BallSpec{X: -1}), "Patch"},
		{"patch center off smallworld", patch("smallworld", "cluster-leader0", popstab.BallSpec{X: 2}), "Patch"},
		{"patch center NaN", patch("torus", "patch-combo", popstab.BallSpec{X: math.NaN(), Y: 0.5, R: 0.1}), "Patch"},
		{"patch radius infinite", patch("torus", "patch-combo", popstab.BallSpec{X: 0.5, Y: 0.5, R: math.Inf(1)}), "radius"},
		{"patch radius NaN", patch("torus", "cluster-leader0", popstab.BallSpec{X: 0.5, Y: 0.5, R: math.NaN()}), "radius"},
		{"patch radius negative", patch("torus", "patch-combo", popstab.BallSpec{X: 0.5, Y: 0.5, R: -0.1}), "radius"},
		{"stray patch off square", patch("mixed", "greedy", popstab.BallSpec{X: -1}), "Patch"},
		{"rogue cluster off square", cluster(popstab.BallSpec{X: -1}), "Rogue.Cluster"},
		{"rogue cluster center infinite", cluster(popstab.BallSpec{X: 0.5, Y: math.Inf(-1)}), "Rogue.Cluster"},
		{"rogue cluster radius infinite", cluster(popstab.BallSpec{X: 0.5, Y: 0.5, R: math.Inf(1)}), "radius"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := base
			tc.mut(&sp)
			_, err := sp.Normalize()
			if err == nil {
				t.Fatalf("Normalize accepted %+v", sp)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Normalize error %q does not mention %q", err, tc.want)
			}
			if h, err := sp.Hash(); err == nil {
				t.Errorf("Hash accepted the spec: %s", h)
			}
			if _, err := popstab.NewSessionFromSpec(sp); err == nil {
				t.Error("NewSessionFromSpec built a spec that does not normalize")
			}
		})
	}
}
