package experiment

import (
	"fmt"

	"popstab/internal/params"
	"popstab/internal/stats"
)

// E1 — the main theorem: the population stays within [(1−α)N, (1+α)N] for
// many epochs, with no adversary and under every attack strategy paced at
// the paper's per-epoch alteration budget Θ(N^{1/4}).
func init() {
	register(&Experiment{
		ID:    "E1",
		Title: "Main theorem: population stability under worst-case alteration",
		Claim: "Theorem 1/2: with K·T = O(N^{1/4}) insertions/deletions per epoch, the population " +
			"remains in [(1−α)N, (1+α)N] for any polynomial number of rounds w.h.p. (α=0.5)",
		Run: runE1,
	})
}

func runE1(cfg Config) (*Result, error) {
	ns := []int{4096, 16384}
	epochs := 15
	trials := 2
	if cfg.Scale == Full {
		ns = []int{4096, 16384, 65536}
		epochs = 30
	}
	res := &Result{}
	table := Table{
		Title: "worst observed |m−N|/N over all epochs and trials (violation bound α = 0.5)",
		Cols:  []string{"N", "adversary", "budget", "epochs", "maxDev", "violations"},
	}
	allOK := true
	for _, n := range ns {
		p, err := paramsFor(n, cfg.Scale)
		if err != nil {
			return nil, err
		}
		k := p.MaxTolerableK()
		arms := []stabilityArm{{"none", 0}, {"delete-random", k}, {"insert-benign", k}, {"greedy", k}}
		nEpochs := epochs
		if n >= 65536 {
			// The largest size costs ~5 ms/round; keep the headline
			// no-adversary and strongest-adversary arms, trimmed.
			arms = []stabilityArm{arms[0], arms[3]}
			nEpochs = 15
		}
		for _, arm := range arms {
			worst := 0.0
			violations := 0
			for tr := 0; tr < trials; tr++ {
				out, err := runStability(p, arm, nEpochs, cfg.Seed+uint64(tr)*7919)
				if err != nil {
					return nil, err
				}
				if d := out.maxDevFrac(p.N); d > worst {
					worst = d
				}
				if out.violatedAt >= 0 {
					violations++
				}
			}
			if violations > 0 {
				allOK = false
			}
			table.AddRow(fmtI(n), arm.adversary, budgetLabel(arm.perEpoch), fmtI(nEpochs),
				fmtF(worst), fmtI(violations))
		}
	}
	res.Tables = append(res.Tables, table)
	res.Verdict = verdict(allOK,
		"no run left [(1−α)N, (1+α)N] under any strategy at the paper's per-epoch budget",
		"interval violated; see table")
	res.Notes = append(res.Notes,
		"budgets are expressed per epoch: the paper's lemmas consume K·T ≤ N^{1/4}/8 per epoch "+
			"(Lemma 3), with the log³N epoch length absorbed into the ε of K = O(N^{1/4−ε})")
	return res, nil
}

// E11 — the full strategy gallery at the per-epoch budget.
func init() {
	register(&Experiment{
		ID:    "E11",
		Title: "Adversary strategy sweep at the tolerated budget",
		Claim: "§1.3: no attack within budget — leader-targeted deletion, color skew, " +
			"desynchronization, eval flooding — moves the population out of the admissible interval",
		Run: runE11,
	})
}

func runE11(cfg Config) (*Result, error) {
	n := 4096
	epochs := 20
	if cfg.Scale == Full {
		n = 16384
		epochs = 25
	}
	p, err := paramsFor(n, cfg.Scale)
	if err != nil {
		return nil, err
	}
	arms := []stabilityArm{{"none", 0}}
	for _, name := range []string{"delete-random", "delete-active", "delete-color1",
		"insert-benign", "insert-leader0", "insert-singleton", "insert-offset",
		"insert-eval", "skew-up", "skew-down", "greedy"} {
		arms = append(arms, stabilityArm{name, p.MaxTolerableK()})
	}
	res := &Result{}
	table := Table{
		Title: fmt.Sprintf("N=%d, budget N^(1/4)=%d alterations/epoch, %d epochs",
			n, p.MaxTolerableK(), epochs),
		Cols: []string{"strategy", "maxDev", "endDev", "violated"},
	}
	allOK := true
	for _, arm := range arms {
		out, err := runStability(p, arm, epochs, cfg.Seed)
		if err != nil {
			return nil, err
		}
		endDev := float64(out.endSize-p.N) / float64(p.N)
		violated := "no"
		if out.violatedAt >= 0 {
			violated = fmt.Sprintf("epoch %d", out.violatedAt)
			allOK = false
		}
		table.AddRow(arm.adversary, fmtF(out.maxDevFrac(p.N)), fmtF(endDev), violated)
	}
	res.Tables = append(res.Tables, table)
	res.Verdict = verdict(allOK,
		"every strategy stays within the admissible interval at budget N^{1/4}/epoch",
		"a strategy broke the protocol within budget; see table")
	return res, nil
}

// E12 — budget scaling: find where the adversary starts to win.
func init() {
	register(&Experiment{
		ID:    "E12",
		Title: "Alteration-budget scaling (tolerance threshold)",
		Claim: "Theorem 1 bounds tolerance at Θ̃(N^{1/4}) alterations per epoch; budgets far above " +
			"that let the strongest strategies push the population out of the interval",
		Run: runE12,
	})
}

func runE12(cfg Config) (*Result, error) {
	n := 4096
	epochs := 20
	if cfg.Scale == Full {
		n = 16384
		epochs = 25
	}
	p, err := paramsFor(n, cfg.Scale)
	if err != nil {
		return nil, err
	}
	base := p.MaxTolerableK()
	budgets := []int{0, base, 4 * base, 16 * base, 64 * base, 256 * base}
	res := &Result{}
	table := Table{
		Title: fmt.Sprintf("N=%d, strongest amplifying strategy (insert-eval), %d epochs; N^(1/4)=%d",
			n, epochs, base),
		Cols: []string{"budget/epoch", "budget/N^(1/4)", "maxDev", "violated"},
	}
	lowOK := true
	highBroke := false
	for _, b := range budgets {
		out, err := runStability(p, stabilityArm{"insert-eval", b}, epochs, cfg.Seed)
		if err != nil {
			return nil, err
		}
		violated := "no"
		if out.violatedAt >= 0 {
			violated = fmt.Sprintf("epoch %d", out.violatedAt)
			if b <= base {
				lowOK = false
			}
			if b >= 64*base {
				highBroke = true
			}
		}
		table.AddRow(budgetLabel(b), fmtF(float64(b)/float64(base)), fmtF(out.maxDevFrac(p.N)), violated)
	}
	res.Tables = append(res.Tables, table)
	res.Verdict = verdict(lowOK && highBroke,
		"stable at ≤N^{1/4}/epoch, broken at ≫N^{1/4}/epoch — the predicted threshold shape",
		"threshold shape not observed; see table")
	res.Notes = append(res.Notes,
		"insert-eval converts each inserted agent into ≈2 deletions via the round-consistency "+
			"check, making it the strongest per-unit-budget attack in the library")
	return res, nil
}

// E14 — γ dependence: the protocol works for any constant matched fraction;
// the restoring drift scales linearly with γ.
func init() {
	register(&Experiment{
		ID:    "E14",
		Title: "Matched-fraction (γ) dependence",
		Claim: "Theorem 1 holds for any constant γ; the evaluation-phase drift magnitude is " +
			"proportional to the number of matched pairs, hence to γ",
		Run: runE14,
	})
}

func runE14(cfg Config) (*Result, error) {
	n := 4096
	epochs := 15
	drifTrials := 400
	if cfg.Scale == Full {
		epochs = 30
		drifTrials = 2000
	}
	gammas := []float64{0.1, 0.25, 0.5, 1.0}
	res := &Result{}
	table := Table{
		Title: fmt.Sprintf("N=%d: stability and one-round eval drift at m = m*/2 (displaced low)", n),
		Cols:  []string{"gamma", "violated", "maxDev", "evalDrift", "drift/gamma"},
	}
	var perGamma []float64
	allOK := true
	for _, g := range gammas {
		p, err := paramsFor(n, cfg.Scale, params.WithGamma(g))
		if err != nil {
			return nil, err
		}
		out, err := runStability(p, stabilityArm{"none", 0}, epochs, cfg.Seed)
		if err != nil {
			return nil, err
		}
		violated := "no"
		if out.violatedAt >= 0 {
			violated = "yes"
			allOK = false
		}
		drift := evalDriftAt(p, p.PredictedEquilibrium()/2, g, drifTrials, cfg)
		perGamma = append(perGamma, drift.Mean()/g)
		table.AddRow(fmtF(g), violated, fmtF(out.maxDevFrac(p.N)),
			fmt.Sprintf("%.2f±%.2f", drift.Mean(), drift.StdErr()), fmtF(drift.Mean()/g))
	}
	// Linearity check: drift/γ should be roughly constant across γ.
	var s stats.Summary
	s.AddAll(perGamma)
	linear := s.N() > 0 && s.Mean() > 0 && s.Std() < 0.5*s.Mean()
	res.Tables = append(res.Tables, table)
	res.Verdict = verdict(allOK && linear,
		"stable at every γ; restoring drift scales ∝ γ",
		"γ dependence off; see table")
	return res, nil
}
