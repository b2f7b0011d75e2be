package experiment

import (
	"testing"

	"popstab"
	"popstab/internal/params"
)

// torusSim builds A5's spatial arm: the paper protocol on the torus with
// daughters spread by the mean inter-agent spacing.
func torusSim(t *testing.T, p params.Params, seed uint64) *popstab.Sim {
	t.Helper()
	s, err := newSim(p, seed, popstab.Spec{Topology: "torus"})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestColorAgreementProbeDoesNotPerturbTrajectory pins Sim.ColorAgreement's
// contract: the probe draws from the torus's own probe stream, so a probed
// and an unprobed run of the same configuration follow identical
// trajectories (the paired-comparison property of DESIGN.md §5).
func TestColorAgreementProbeDoesNotPerturbTrajectory(t *testing.T) {
	p, err := paramsFor(4096, Quick)
	if err != nil {
		t.Fatal(err)
	}
	run := func(probed bool) []int {
		s := torusSim(t, p, 8)
		var sizes []int
		for i := 0; i < p.T; i++ {
			if probed && i%10 == 0 {
				if _, _, ok := s.ColorAgreement(); !ok {
					t.Fatal("torus run has no probe")
				}
			}
			sizes = append(sizes, s.RunRound().SizeAfter)
		}
		return sizes
	}
	plain, probed := run(false), run(true)
	for i := range plain {
		if plain[i] != probed[i] {
			t.Fatalf("probe perturbed the trajectory at round %d: %d != %d", i, plain[i], probed[i])
		}
	}
}

// TestLocalMatchingBiasesColorSignal is the core A5 observation at the
// level of single pairs: under local matching, matched colored pairs share
// a color far more often than the well-mixed analysis predicts, because
// recruitment spreads clusters as spatial patches.
func TestLocalMatchingBiasesColorSignal(t *testing.T) {
	p, err := paramsFor(4096, Quick)
	if err != nil {
		t.Fatal(err)
	}
	s := torusSim(t, p, 4)
	// Run to the evaluation round of the first epoch.
	s.RunRounds(p.T - 1)
	same, diff, _ := s.ColorAgreement()
	if same+diff < 20 {
		t.Skipf("too few colored pairs to judge (%d)", same+diff)
	}
	// Well-mixed prediction: 1/2 + 4/√N ≈ 0.56. Spatial clustering pushes
	// it far higher.
	if frac := float64(same) / float64(same+diff); frac < 0.7 {
		t.Errorf("same-color fraction %.3f; expected strong spatial bias > 0.7", frac)
	}
}
