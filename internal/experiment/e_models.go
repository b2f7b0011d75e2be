package experiment

import (
	"fmt"

	"popstab"
	"popstab/internal/baseline"
	"popstab/internal/params"
	"popstab/internal/protocol"
	"popstab/internal/sim"
	"popstab/internal/stats"
)

// A5 — spatial (geometric) communication: the paper's uniform random
// matching is load-bearing; under nearest-neighbor matching the color signal
// saturates locally and the size estimator biases upward.
func init() {
	register(&Experiment{
		ID:    "A5",
		Title: "Ablation: geometric (nearest-neighbor) communication",
		Claim: "§1.2 open question: with agents at points of R² communicating locally, recruitment " +
			"grows spatial patches; nearby agents share clusters far more often than the well-mixed " +
			"analysis assumes, so the variance signal stops encoding the global size",
		Run: runA5,
	})
}

func runA5(cfg Config) (*Result, error) {
	n := 4096
	epochs := 10
	if cfg.Scale == Full {
		epochs = 25
	}
	p, err := paramsFor(n, cfg.Scale)
	if err != nil {
		return nil, err
	}
	res := &Result{}

	// Arm 1: uniform matching (the model). Arm 2: local matching.
	table := Table{
		Title: fmt.Sprintf("uniform vs nearest-neighbor matching, N=%d, %d epochs", n, epochs),
		Cols: []string{"matching", "same-color frac at eval (well-mixed ≈ 0.56)",
			"mean splits/epoch", "mean deaths/epoch", "end size"},
	}

	// Uniform arm: the model's γ-matching.
	eng, err := newSim(p, cfg.Seed, popstab.Spec{})
	if err != nil {
		return nil, err
	}
	var uniFrac stats.Summary
	for ep := 0; ep < epochs; ep++ {
		eng.RunRounds(p.T - 1)
		uniFrac.Add(sameColorPairFraction(eng))
		eng.RunRounds(1)
	}
	uc := eng.Counters()
	table.AddRow("uniform (model)", fmtF(uniFrac.Mean()),
		fmtF(float64(uc.EvalSplits)/float64(epochs)),
		fmtF(float64(uc.EvalDeaths)/float64(epochs)),
		fmtI(eng.Size()))

	// Spatial arm: the same protocol on the torus, daughters spread by the
	// mean inter-agent spacing 1/√N.
	geng, err := newSim(p, cfg.Seed, popstab.Spec{Topology: "torus"})
	if err != nil {
		return nil, err
	}
	var geoFrac stats.Summary
	for ep := 0; ep < epochs; ep++ {
		geng.RunRounds(p.T - 1)
		frac := 0.5
		if same, diff, _ := geng.ColorAgreement(); same+diff > 0 {
			frac = float64(same) / float64(same+diff)
		}
		geoFrac.Add(frac)
		geng.RunRound()
	}
	gc := geng.Counters()
	table.AddRow("nearest-neighbor", fmtF(geoFrac.Mean()),
		fmtF(float64(gc.EvalSplits)/float64(epochs)),
		fmtF(float64(gc.EvalDeaths)/float64(epochs)),
		fmtI(geng.Size()))

	res.Tables = append(res.Tables, table)
	biased := geoFrac.Mean() > uniFrac.Mean()+0.1
	res.Verdict = verdict(biased,
		"local matching inflates the same-color meeting probability far above the well-mixed "+
			"value — the uniform-matching assumption is load-bearing, as the paper anticipates",
		"no spatial bias observed; see table")
	res.Notes = append(res.Notes,
		"with the same-color probability saturated, evaluation produces almost pure splitting; "+
			"the spatial variant needs a different (local-density) signal — the paper lists this "+
			"communication model as an open question")
	return res, nil
}

// sameColorPairFraction estimates the same-color probability of matched
// colored pairs at the evaluation round by census approximation: it derives
// Pr[same] from the realized color counts (exact enough for the comparison).
func sameColorPairFraction(s *popstab.Sim) float64 {
	c := s.Census()
	colored := float64(c.ColorCount[0] + c.ColorCount[1])
	if colored < 2 {
		return 0.5
	}
	p0 := float64(c.ColorCount[0]) / colored
	p1 := float64(c.ColorCount[1]) / colored
	// Independent-pair approximation plus the same-cluster excess √N/colored.
	base := p0*p0 + p1*p1
	excess := float64(s.Params().ClusterSize) / colored * (1 - base)
	return base + excess
}

// A6 — partial synchrony: bounded clock drift.
func init() {
	register(&Experiment{
		ID:    "A6",
		Title: "Ablation: clock drift (partial synchrony)",
		Claim: "§1.2: \"the construction in this paper requires synchrony\" — each drifted agent " +
			"costs ≈2 deaths via the round-consistency check, so the tolerable per-round stall " +
			"probability is only δ* ≈ maxRestoringDrift/(2·T·N): vanishingly small, and any " +
			"measurable drift rate destabilizes the population",
		Run: runA6,
	})
}

func runA6(cfg Config) (*Result, error) {
	n := 4096
	epochs := 12
	if cfg.Scale == Full {
		epochs = 25
	}
	// γ = 1 maximizes the restoring drift, giving drift absorption its best
	// chance; the threshold is tiny even so.
	p, err := paramsFor(n, cfg.Scale, params.WithGamma(1.0))
	if err != nil {
		return nil, err
	}
	res := &Result{}
	// Drift deaths ≈ 2·δ·T·N per epoch; the protocol can absorb a few
	// agents per epoch (the restoring drift's magnitude inside the
	// admissible interval).
	deathsPerEpoch := func(delta float64) float64 {
		return 2 * delta * float64(p.T) * float64(p.N)
	}
	table := Table{
		Title: fmt.Sprintf("per-agent stall probability δ, N=%d, γ=1, %d epochs", n, epochs),
		Cols:  []string{"δ", "drift deaths/epoch ≈ 2δTN", "end size/N", "wrongRound frac", "outcome"},
	}
	type row struct {
		delta float64
		holds bool
	}
	var rows []row
	for _, delta := range []float64{0, 1e-6, 3e-5, 1e-3} {
		pr, err := protocol.New(p)
		if err != nil {
			return nil, err
		}
		stepper, err := baseline.NewDriftingClock(pr, delta)
		if err != nil {
			return nil, err
		}
		eng, err := sim.New(sim.Config{Params: p, Protocol: sim.Lift(stepper), Seed: cfg.Seed, Workers: 1})
		if err != nil {
			return nil, err
		}
		for ep := 0; ep < epochs; ep++ {
			eng.RunEpoch()
			if eng.Size() < p.N/8 {
				break
			}
		}
		c := eng.Census()
		frac := float64(eng.Size()) / float64(p.N)
		wrong := 0.0
		if c.Total > 0 {
			wrong = float64(c.WrongRound) / float64(c.Total)
		}
		holds := frac >= 1-p.Alpha && frac <= 1+p.Alpha
		outcome := "stable"
		if !holds {
			outcome = "destabilized"
		}
		rows = append(rows, row{delta, holds})
		table.AddRow(fmt.Sprintf("%.0e", delta), fmtF(deathsPerEpoch(delta)),
			fmtF(frac), fmtF(wrong), outcome)
	}
	res.Tables = append(res.Tables, table)
	ok := rows[0].holds && rows[1].holds && !rows[len(rows)-1].holds
	res.Verdict = verdict(ok,
		"drift below δ* (≈1e-6 here) is absorbed; anything measurable destabilizes — the "+
			"synchrony requirement of §1.2 is sharp at this scale",
		"drift tolerance differs; see table")
	res.Notes = append(res.Notes,
		"each stalled agent falls permanently behind and is culled at an evaluation-boundary "+
			"mismatch together with one correct agent, hence the 2·δ·T·N deaths per epoch; "+
			"restoring this loss would need the Θ(γ√N/64)-per-epoch drift, giving the tiny δ*")
	return res, nil
}
