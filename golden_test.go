package popstab_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"popstab"
)

// goldenAddresses pins the content addresses the serving layer keys on: the
// canonical Spec.Hash (its dedupe key) and the SHA-256 of Session.Snapshot
// after two epochs (what a checkpoint stores). Together the specs cover every
// axis: the three topology families, the 4-bit codec, a spatial adversary
// with a patch ball, the rogue extension with clustered infiltration, a
// baseline protocol and the selfish variant. A change to either column means
// stored checkpoints and dedupe entries no longer resolve; if that is
// intended, rerun with -v and update the constants.
var goldenAddresses = []struct {
	name     string
	spec     popstab.Spec
	hash     string
	snapshot string
}{
	{
		name: "mixed/greedy/4-bit",
		spec: popstab.Spec{N: 4096, Tinner: 24, Seed: 21, MessageBits: 4,
			Adversary: "greedy", K: 1, PerEpochBudget: 16},
		hash:     "18dead8c3bc55865a56e7cfb6ea0df74792b9f1769b564f006e1a2c534d6ffe4",
		snapshot: "0b6dcfe1784c131f43f6514ae1b91ceab5e9121c0557a346fb4187aeea2c7dc9",
	},
	{
		name: "torus/patch-combo",
		spec: popstab.Spec{N: 4096, Tinner: 24, Seed: 22, Topology: "torus", DaughterSpread: 1.5,
			Adversary: "patch-combo", Patch: &popstab.BallSpec{X: 0.5, Y: 0.5, R: 0.1},
			K: 1, PerEpochBudget: 24},
		hash:     "2e338266c45c45819bf6c35030d35ce00eecced25f7e3d9b70b69466c0a5559f",
		snapshot: "4bf33953b234d88a5cd7ccee6c02b9c44aa230e136edac441ad45c620c597927",
	},
	{
		name: "smallworld/rewire-force+rogue-cluster",
		spec: popstab.Spec{N: 4096, Tinner: 24, Seed: 23, Topology: "smallworld", RewireProb: 0.3,
			Adversary: "rewire-force", Patch: &popstab.BallSpec{X: 0.25, R: 0.05},
			Rogue: &popstab.RogueSpec{ReplicateEvery: 3, DetectProb: 1,
				InitialRogues: 16, RoguesPerEpoch: 4, Cluster: &popstab.BallSpec{X: 0.25, R: 0.05}}},
		hash:     "2c05c2cd9337028050b8e8f03b28bbcef6e9449fbb9bbde5e5a1bf1b58bb88e1",
		snapshot: "20c9860fc5b8a5a29024c9cac03a9f47b051c0be5c132f8b85885a1085c213a5",
	},
	{
		name: "grid/rogue-cluster",
		spec: popstab.Spec{N: 4096, Tinner: 24, Seed: 24, Topology: "grid",
			Rogue: &popstab.RogueSpec{ReplicateEvery: 4, DetectProb: 0.9,
				InitialRogues: 8, Cluster: &popstab.BallSpec{X: 0.5, Y: 0.5, R: 0.05}}},
		hash:     "f84a6fe75d8ce39c9b02120a5363c81145d14c31eaf9f63219155eb693d0d359",
		snapshot: "995d4d49f52241d90b7cbb74719c2c4f080310bc7d766824bdd878a48c9d3cab",
	},
	{
		name: "mixed/attempt1/delete-active",
		spec: popstab.Spec{N: 4096, Tinner: 24, Seed: 25, Protocol: "attempt1",
			Adversary: "delete-active", K: 2, PerEpochBudget: 32, Gamma: 0.5},
		hash:     "6b6126eadc1bf973e562abe65026c03007d76ce4b6791e3e926585bc8d04ae96",
		snapshot: "c8c2034b765b8c0578d27f21f184c5bb179bc3e25cd349aa173d7d24a93e7666",
	},
	{
		name: "ring/attempt2/selfish",
		spec: popstab.Spec{N: 4096, Tinner: 24, Seed: 26, Topology: "ring", Protocol: "attempt2",
			Selfish: true, InitialSize: 3000},
		hash:     "d0a44d3565aebcec5cc2938b6e124c48f05d8dc6172601a2a917a6c5dab5a8d7",
		snapshot: "0cac74d0e282256468d82090d2d1c470a334843bf1fd67021ac065c7b47ada14",
	},
}

func TestGoldenContentAddresses(t *testing.T) {
	for _, tc := range goldenAddresses {
		t.Run(tc.name, func(t *testing.T) {
			h, err := tc.spec.Hash()
			if err != nil {
				t.Fatal(err)
			}
			sp := tc.spec
			sp.Workers = 1
			s, err := popstab.NewSessionFromSpec(sp)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			s.StepEpoch()
			s.StepEpoch()
			sum := sha256.Sum256(s.Snapshot())
			snap := hex.EncodeToString(sum[:])
			t.Logf("hash %s snapshot %s", h, snap)
			if h != tc.hash {
				t.Errorf("Spec.Hash = %s, want %s", h, tc.hash)
			}
			if snap != tc.snapshot {
				t.Errorf("snapshot SHA-256 after two epochs = %s, want %s", snap, tc.snapshot)
			}
		})
	}
}

// TestEqualHashesRestoreInterchangeably pins what an equal Spec.Hash
// promises the dedupe cache: the two specs run the same simulation, so their
// snapshots are byte-identical and each restores under the other spec. Each
// pair differs only in a field the build ignores or canonicalizes: a budget
// without an adversary, a paced adversary's K 0 (which runs as K 1), and the
// 4-bit codec on a protocol that has no codec.
func TestEqualHashesRestoreInterchangeably(t *testing.T) {
	pairs := []struct {
		name string
		a, b popstab.Spec
	}{
		{"k-without-adversary",
			popstab.Spec{N: 4096, Tinner: 24, Seed: 3, K: 5},
			popstab.Spec{N: 4096, Tinner: 24, Seed: 3}},
		{"paced-k0",
			popstab.Spec{N: 4096, Tinner: 24, Seed: 4, Adversary: "greedy", PerEpochBudget: 16},
			popstab.Spec{N: 4096, Tinner: 24, Seed: 4, Adversary: "greedy", K: 1, PerEpochBudget: 16}},
		{"baseline-4-bit",
			popstab.Spec{N: 4096, Tinner: 24, Seed: 5, Protocol: "attempt1", MessageBits: 4},
			popstab.Spec{N: 4096, Tinner: 24, Seed: 5, Protocol: "attempt1"}},
	}
	for _, tc := range pairs {
		t.Run(tc.name, func(t *testing.T) {
			ha, err := tc.a.Hash()
			if err != nil {
				t.Fatal(err)
			}
			hb, err := tc.b.Hash()
			if err != nil {
				t.Fatal(err)
			}
			if ha != hb {
				t.Errorf("hashes differ: %s vs %s", ha, hb)
			}
			snap := func(sp popstab.Spec) []byte {
				sp.Workers = 1
				s, err := popstab.NewSessionFromSpec(sp)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				s.StepEpoch()
				return s.Snapshot()
			}
			sa, sb := snap(tc.a), snap(tc.b)
			if !bytes.Equal(sa, sb) {
				t.Errorf("snapshots after one epoch differ (%d vs %d bytes)", len(sa), len(sb))
			}
			for _, r := range []struct {
				spec popstab.Spec
				blob []byte
			}{{tc.b, sa}, {tc.a, sb}} {
				s, err := popstab.RestoreSessionFromSpec(r.spec, r.blob)
				if err != nil {
					t.Errorf("snapshot does not restore under %+v: %v", r.spec, err)
					continue
				}
				s.Close()
			}
		})
	}
}
