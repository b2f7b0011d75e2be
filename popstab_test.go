package popstab_test

import (
	"fmt"
	"strings"
	"testing"

	"popstab"
)

func TestNewDefaults(t *testing.T) {
	s, err := popstab.New(popstab.Spec{N: 4096, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := s.Params()
	if p.N != 4096 || p.Tinner != 144 || p.Gamma != 0.25 || p.Alpha != 0.5 {
		t.Errorf("defaults: %+v", p)
	}
	if s.Size() != 4096 {
		t.Errorf("initial size %d", s.Size())
	}
	if s.Counters() == nil {
		t.Error("default protocol exposes no paper counters")
	}
	if !s.InInterval() {
		t.Error("initial population outside interval")
	}
}

func TestNewValidation(t *testing.T) {
	cases := []popstab.Spec{
		{N: 1000},                 // too small / not power of four
		{N: 4096, MessageBits: 5}, // unsupported codec
		{N: 4096, Tinner: 3},      // below ω(log N)
		{N: 4096, Gamma: 2},       // invalid gamma
		{N: 4096, Protocol: "99"}, // unknown protocol
	}
	for i, sp := range cases {
		if _, err := popstab.New(sp); err == nil {
			t.Errorf("case %d: accepted %+v", i, sp)
		}
	}
}

func TestRunEpochsStability(t *testing.T) {
	s, err := popstab.New(popstab.Spec{N: 4096, Tinner: 24, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	reps := s.RunEpochs(10)
	if len(reps) != 10 {
		t.Fatalf("got %d reports", len(reps))
	}
	for _, r := range reps {
		if r.MinSize < 2048 || r.MaxSize > 6144 {
			t.Fatalf("population left the interval: %+v", r)
		}
	}
	if !s.InInterval() {
		t.Error("final population outside interval")
	}
	if s.GlobalRound() != uint64(10*s.EpochLen()) {
		t.Errorf("global round %d", s.GlobalRound())
	}
}

func TestCountersExposed(t *testing.T) {
	s, err := popstab.New(popstab.Spec{N: 4096, Tinner: 24, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s.RunEpoch()
	c := s.Counters()
	if c == nil || c.Leaders == 0 {
		t.Errorf("counters not populated: %+v", c)
	}
}

func TestBaselineKinds(t *testing.T) {
	for _, kind := range []string{"attempt1", "attempt2", "empty"} {
		s, err := popstab.New(popstab.Spec{N: 4096, Tinner: 24, Seed: 4, Protocol: kind})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		s.RunRounds(50)
		if kind != "attempt1" && s.EpochLen() != 1 {
			t.Errorf("%v epoch len %d", kind, s.EpochLen())
		}
		if s.Counters() != nil {
			t.Errorf("%v must not expose paper counters", kind)
		}
	}
}

// TestProtocolKindStrings pins the protocol names a Spec accepts: each
// normalizes to itself, "" to the paper protocol, and anything else fails.
func TestProtocolKindStrings(t *testing.T) {
	for in, want := range map[string]string{
		"": "paper", "paper": "paper", "attempt1": "attempt1", "attempt2": "attempt2", "empty": "empty",
	} {
		norm, err := popstab.Spec{N: 4096, Protocol: in}.Normalize()
		if err != nil || norm.Protocol != want {
			t.Errorf("protocol %q normalizes to %q, %v; want %q", in, norm.Protocol, err, want)
		}
	}
	if _, err := (popstab.Spec{N: 4096, Protocol: "nope"}).Normalize(); err == nil {
		t.Error("accepted unknown protocol")
	}
}

func TestFourBitCodecConfig(t *testing.T) {
	s3, err := popstab.New(popstab.Spec{N: 4096, Tinner: 24, Seed: 5, MessageBits: 3})
	if err != nil {
		t.Fatal(err)
	}
	s4, err := popstab.New(popstab.Spec{N: 4096, Tinner: 24, Seed: 5, MessageBits: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		a := s3.RunRound()
		b := s4.RunRound()
		if a.SizeAfter != b.SizeAfter {
			t.Fatalf("codec trajectories diverged at round %d", i)
		}
	}
}

// TestAdversaryByName builds a run under every position-blind registry
// name and checks an unknown name is rejected with both registries listed.
func TestAdversaryByName(t *testing.T) {
	for _, name := range popstab.AdversaryNames() {
		s, err := popstab.New(popstab.Spec{N: 4096, Tinner: 24, Seed: 6, Adversary: name, K: 2, Workers: 1})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		s.RunRound()
	}
	_, err := popstab.New(popstab.Spec{N: 4096, Tinner: 24, Adversary: "bogus"})
	if err == nil {
		t.Fatal("accepted bogus adversary name")
	}
	for _, name := range []string{"greedy", "patch-combo"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-adversary error %q does not list %s", err, name)
		}
	}
}

func TestAdversarialRun(t *testing.T) {
	s, err := popstab.New(popstab.Spec{
		N: 4096, Tinner: 24, Seed: 7,
		Adversary:      "greedy",
		K:              1,
		PerEpochBudget: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	inserted, deleted := 0, 0
	for _, rep := range s.RunEpochs(5) {
		inserted += rep.AdvInserted
		deleted += rep.AdvDeleted
	}
	if inserted+deleted == 0 {
		t.Error("paced adversary never acted")
	}
	if inserted+deleted > 5*8+8 {
		t.Errorf("adversary exceeded per-epoch budget: %d alterations in 5 epochs", inserted+deleted)
	}
	if !s.InInterval() {
		t.Error("population left interval under budgeted adversary")
	}
}

func TestDisplace(t *testing.T) {
	s, err := popstab.New(popstab.Spec{N: 4096, Tinner: 24, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	s.Displace(3000)
	if s.Size() != 3000 {
		t.Errorf("size %d after Displace", s.Size())
	}
}

func TestCensus(t *testing.T) {
	s, err := popstab.New(popstab.Spec{N: 4096, Tinner: 24, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	s.RunRounds(10)
	c := s.Census()
	if c.Total != s.Size() {
		t.Errorf("census total %d != size %d", c.Total, s.Size())
	}
}

// TestParallelWorkersEquivalence is the public-surface determinism
// guarantee of the parallel round engine: for every protocol kind, and for
// an adversarial run, the full RoundReport trajectory and final Census are
// bit-identical across Workers ∈ {1, 2, 8}.
func TestParallelWorkersEquivalence(t *testing.T) {
	type arm struct {
		name string
		cfg  popstab.Spec
	}
	var arms []arm
	for _, kind := range []string{"paper", "attempt1", "attempt2", "empty"} {
		arms = append(arms, arm{
			name: kind,
			cfg:  popstab.Spec{N: 4096, Tinner: 24, Seed: 31, Protocol: kind},
		})
	}
	arms = append(arms, arm{
		name: "paper-adversarial",
		cfg: popstab.Spec{N: 4096, Tinner: 24, Seed: 32,
			Adversary: "greedy", K: 4},
	})
	arms = append(arms, arm{
		name: "torus-adversarial",
		cfg: popstab.Spec{N: 4096, Tinner: 24, Seed: 33, Topology: "torus",
			Adversary: "greedy", K: 2},
	})
	arms = append(arms, arm{
		name: "rogue-on-torus",
		cfg: popstab.Spec{N: 4096, Tinner: 24, Seed: 34, Topology: "torus",
			Rogue: &popstab.RogueSpec{ReplicateEvery: 8, DetectProb: 1, InitialRogues: 32}},
	})
	// The rest of the topology gallery: all spatial matchers shard their
	// own matching phase, so they must stay bit-identical across worker
	// counts too (including under an adversary, whose insertions exercise
	// the Place hook).
	arms = append(arms, arm{
		name: "grid-adversarial",
		cfg: popstab.Spec{N: 4096, Tinner: 24, Seed: 35, Topology: "grid",
			Adversary: "greedy", K: 2},
	})
	arms = append(arms, arm{
		name: "ring",
		cfg:  popstab.Spec{N: 4096, Tinner: 24, Seed: 36, Topology: "ring"},
	})
	arms = append(arms, arm{
		name: "smallworld",
		cfg: popstab.Spec{N: 4096, Tinner: 24, Seed: 37, Topology: "smallworld",
			RewireProb: 0.25},
	})

	const rounds = 300
	run := func(cfg popstab.Spec, workers int) ([]popstab.RoundReport, popstab.Census) {
		cfg.Workers = workers
		s, err := popstab.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		reps := make([]popstab.RoundReport, rounds)
		for i := range reps {
			reps[i] = s.RunRound()
		}
		return reps, s.Census()
	}
	for _, a := range arms {
		t.Run(a.name, func(t *testing.T) {
			wantReps, wantCensus := run(a.cfg, 1)
			for _, w := range []int{2, 8} {
				gotReps, gotCensus := run(a.cfg, w)
				for i := range wantReps {
					if gotReps[i] != wantReps[i] {
						t.Fatalf("workers=%d: round %d diverged:\n  got  %+v\n  want %+v",
							w, i, gotReps[i], wantReps[i])
					}
				}
				if fmt.Sprintf("%+v", gotCensus) != fmt.Sprintf("%+v", wantCensus) {
					t.Fatalf("workers=%d: census diverged:\n  got  %+v\n  want %+v",
						w, gotCensus, wantCensus)
				}
			}
		})
	}
}

// TestInIntervalBoundary pins the interval arithmetic of InInterval: the
// admissible range is the closed real interval [(1−α)N, (1+α)N], so the
// integer lower bound rounds UP (a population one below ⌈(1−α)N⌉ violates)
// and the upper bound rounds down. With α = 0.3, (1−α)N = 2867.2 — so 2867
// is out and 2868 is in, which truncation would misclassify.
func TestInIntervalBoundary(t *testing.T) {
	cases := []struct {
		size int
		want bool
	}{
		{2867, false}, // below ⌈2867.2⌉ = 2868
		{2868, true},  // exactly the smallest admissible integer
		{5324, true},  // ⌊5324.8⌋ = 5324, largest admissible integer
		{5325, false}, // above (1+α)N
	}
	for _, tc := range cases {
		s, err := popstab.New(popstab.Spec{
			N: 4096, Tinner: 24, Alpha: 0.3, Seed: 1, InitialSize: tc.size,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := s.InInterval(); got != tc.want {
			t.Errorf("size %d: InInterval = %v, want %v", tc.size, got, tc.want)
		}
	}
}

func TestTopologyConfig(t *testing.T) {
	if _, err := popstab.New(popstab.Spec{N: 4096, Tinner: 24, DaughterSpread: 1}); err == nil {
		t.Error("accepted DaughterSpread on the mixed topology")
	}
	if _, err := popstab.New(popstab.Spec{N: 4096, Tinner: 24, Topology: "moebius"}); err == nil {
		t.Error("accepted unknown topology")
	}
	// Every gallery topology normalizes to its own name, and builds.
	for in, want := range map[string]string{
		"": "mixed", "mixed": "mixed", "torus": "torus",
		"grid": "grid", "ring": "ring", "smallworld": "smallworld",
	} {
		sp := popstab.Spec{N: 4096, Tinner: 24, Topology: in, Workers: 1}
		norm, err := sp.Normalize()
		if err != nil || norm.Topology != want {
			t.Errorf("topology %q normalizes to %q, %v; want %q", in, norm.Topology, err, want)
		}
		if _, err := popstab.New(sp); err != nil {
			t.Errorf("topology %q: %v", in, err)
		}
	}
	// RewireProb is SmallWorld-only and validated.
	if _, err := popstab.New(popstab.Spec{N: 4096, Tinner: 24, RewireProb: 0.5}); err == nil {
		t.Error("accepted RewireProb on the mixed topology")
	}
	if _, err := popstab.New(popstab.Spec{N: 4096, Tinner: 24, Topology: "ring",
		RewireProb: 0.5}); err == nil {
		t.Error("accepted RewireProb on the ring topology")
	}
	if _, err := popstab.New(popstab.Spec{N: 4096, Tinner: 24, Topology: "smallworld",
		RewireProb: 1.5}); err == nil {
		t.Error("accepted RewireProb outside [0, 1]")
	}
	if _, err := popstab.New(popstab.Spec{N: 4096, Tinner: 24, Topology: "smallworld",
		RewireProb: 0.3}); err != nil {
		t.Errorf("rejected valid SmallWorld spec: %v", err)
	}
}

// TestColorAgreement: the probe needs a spatial matcher, and at the
// evaluation round it sees colored pairs on every spatial topology.
func TestColorAgreement(t *testing.T) {
	s, err := popstab.New(popstab.Spec{N: 4096, Tinner: 24, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.ColorAgreement(); ok {
		t.Error("well-mixed run reports a probe")
	}
	for _, topo := range []string{"torus", "grid", "ring", "smallworld"} {
		s, err := popstab.New(popstab.Spec{N: 4096, Tinner: 24, Topology: topo, Seed: 3, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		s.RunRounds(s.EpochLen() - 1)
		if same, diff, ok := s.ColorAgreement(); !ok || same+diff == 0 {
			t.Errorf("%s: probe same=%d diff=%d ok=%v", topo, same, diff, ok)
		}
	}
}

// TestRogueExtensionThroughConfig drives the malicious-program extension
// through the public Spec surface (mixed topology) and asserts the rogue
// cohort is contained while the honest population persists.
func TestRogueExtensionThroughConfig(t *testing.T) {
	s, err := popstab.New(popstab.Spec{
		N: 4096, Tinner: 24, Seed: 5,
		Rogue: &popstab.RogueSpec{ReplicateEvery: 16, DetectProb: 1, InitialRogues: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	honest, rogues := s.RogueCounts()
	if honest != 4096 || rogues != 64 {
		t.Fatalf("initial composition %d/%d", honest, rogues)
	}
	s.RunEpochs(3)
	honest, rogues = s.RogueCounts()
	if rogues > 8 {
		t.Errorf("rogues not contained: %d remain", rogues)
	}
	if honest < 2048 || honest > 8192 {
		t.Errorf("honest population destabilized: %d", honest)
	}
	if s.RogueStats().RogueKills == 0 {
		t.Error("no kills recorded")
	}
	// Invalid rogue parameterizations must be rejected.
	bad := []popstab.RogueSpec{
		{ReplicateEvery: 0, DetectProb: 1},
		{ReplicateEvery: 4, DetectProb: 1.5},
		{ReplicateEvery: 4, DetectProb: 1, InitialRogues: -1},
	}
	for i, rc := range bad {
		if _, err := popstab.New(popstab.Spec{N: 4096, Tinner: 24, Rogue: &rc}); err == nil {
			t.Errorf("case %d: accepted %+v", i, rc)
		}
	}
}

// TestRogueWithoutExtensionAccessors pins the degenerate accessors.
func TestRogueWithoutExtensionAccessors(t *testing.T) {
	s, err := popstab.New(popstab.Spec{N: 4096, Tinner: 24, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	honest, rogues := s.RogueCounts()
	if honest != s.Size() || rogues != 0 {
		t.Errorf("RogueCounts without extension = %d/%d", honest, rogues)
	}
	if s.RogueStats() != (popstab.RogueStats{}) {
		t.Errorf("RogueStats without extension = %+v", s.RogueStats())
	}
}

// TestSelfishConfig wires Spec.Selfish end to end: the selfish variant
// escapes the admissible interval with no adversary at all, and the flag
// composes with spatial topologies.
func TestSelfishConfig(t *testing.T) {
	s, err := popstab.New(popstab.Spec{N: 4096, Tinner: 24, Seed: 31, Selfish: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	escaped := false
	for i := 0; i < s.EpochLen() && !escaped; i++ {
		s.RunRound()
		escaped = !s.InInterval() && s.Size() > 4096
	}
	if !escaped {
		t.Fatalf("selfish run still at %d agents, want escape above the interval", s.Size())
	}
	if _, err := popstab.New(popstab.Spec{N: 4096, Tinner: 24, Seed: 31, Selfish: true, Topology: "ring", Workers: 1}); err != nil {
		t.Fatalf("Selfish on Ring: %v", err)
	}
}

// TestSpatialAdversaryConfig drives the patch family through the public
// Spec on a ring: every spatial name builds, and delete-patch spends its
// budget inside the ball.
func TestSpatialAdversaryConfig(t *testing.T) {
	patch := &popstab.BallSpec{X: 0.5, R: 0.05}
	for _, name := range popstab.SpatialAdversaryNames() {
		if _, err := popstab.New(popstab.Spec{N: 4096, Tinner: 24, Topology: "ring",
			Adversary: name, Patch: patch, K: 1, Workers: 1}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	s, err := popstab.New(popstab.Spec{N: 4096, Tinner: 24, Seed: 32, Topology: "ring",
		Adversary: "delete-patch", Patch: patch, K: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep := s.RunRound()
	if rep.AdvDeleted != 4 {
		t.Errorf("patch deleter removed %d, want 4", rep.AdvDeleted)
	}
}

// TestRogueClusterConfig validates the clustered-infiltration plumbing:
// spatial topology required, and the clustered run is deterministic in the
// seed.
func TestRogueClusterConfig(t *testing.T) {
	ball := &popstab.BallSpec{X: 0.5, R: 0.02}
	if _, err := popstab.New(popstab.Spec{N: 4096, Tinner: 24, Seed: 33,
		Rogue: &popstab.RogueSpec{ReplicateEvery: 3, DetectProb: 1, InitialRogues: 8, Cluster: ball},
	}); err == nil {
		t.Error("Cluster accepted on the mixed topology")
	}
	run := func() (int, int) {
		s, err := popstab.New(popstab.Spec{N: 4096, Tinner: 24, Seed: 33, Topology: "ring", Workers: 1,
			Rogue: &popstab.RogueSpec{ReplicateEvery: 3, DetectProb: 1, InitialRogues: 8, Cluster: ball},
		})
		if err != nil {
			t.Fatal(err)
		}
		s.RunRounds(16)
		return s.RogueCounts()
	}
	h1, r1 := run()
	h2, r2 := run()
	if h1 != h2 || r1 != r2 {
		t.Errorf("clustered rogue run not deterministic: (%d,%d) vs (%d,%d)", h1, r1, h2, r2)
	}
}
