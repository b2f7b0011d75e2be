package experiment

import (
	"math"
	"testing"

	"popstab/internal/match"
	"popstab/internal/params"
	"popstab/internal/protocol"
	"popstab/internal/sim"
)

// torusEngine builds A5's spatial arm: the paper protocol on the torus with
// daughters spread by the mean inter-agent spacing.
func torusEngine(t *testing.T, p params.Params, seed uint64) (*sim.Engine, *match.Torus) {
	t.Helper()
	torus, err := match.NewTorus(1 / math.Sqrt(float64(p.N)))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.New(sim.Config{Params: p, Protocol: protocol.MustNew(p), Matcher: torus, Seed: seed, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return eng, torus
}

// TestColorAgreementProbeDoesNotPerturbTrajectory pins sampleColorAgreement's
// contract: the probe draws from the torus's placement stream, so a probed
// and an unprobed run of the same configuration follow identical
// trajectories (the paired-comparison property of DESIGN.md §5).
func TestColorAgreementProbeDoesNotPerturbTrajectory(t *testing.T) {
	p, err := paramsFor(4096, Quick)
	if err != nil {
		t.Fatal(err)
	}
	run := func(probed bool) []int {
		eng, torus := torusEngine(t, p, 8)
		var (
			probe match.Pairing
			sizes []int
		)
		for i := 0; i < p.T; i++ {
			if probed && i%10 == 0 {
				sampleColorAgreement(eng, torus, &probe)
			}
			sizes = append(sizes, eng.RunRound().SizeAfter)
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
	eng, torus := torusEngine(t, p, 4)
	// Run to the evaluation round of the first epoch.
	eng.RunRounds(p.T - 1)
	var probe match.Pairing
	same, diff := sampleColorAgreement(eng, torus, &probe)
	if same+diff < 20 {
		t.Skipf("too few colored pairs to judge (%d)", same+diff)
	}
	// Well-mixed prediction: 1/2 + 4/√N ≈ 0.56. Spatial clustering pushes
	// it far higher.
	if frac := float64(same) / float64(same+diff); frac < 0.7 {
		t.Errorf("same-color fraction %.3f; expected strong spatial bias > 0.7", frac)
	}
}
