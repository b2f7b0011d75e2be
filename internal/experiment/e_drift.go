package experiment

import (
	"fmt"

	"popstab"
	"popstab/internal/match"
	"popstab/internal/params"
	"popstab/internal/prng"
	"popstab/internal/protocol"
	"popstab/internal/sim"
	"popstab/internal/stats"
)

// evalDriftAt samples the one-round evaluation-phase population drift at a
// prepared population of size m with the protocol's own cluster structure —
// a Binomial(m, 1/(8√N)) number of complete clusters of √N agents with
// independent random colors — under a γ-matching. Each trial costs a single
// round, so drift curves are cheap to resolve.
func evalDriftAt(p params.Params, m int, gamma float64, trials int, cfg Config) *stats.Summary {
	deltas := RunTrials(trials, cfg.Workers, cfg.Seed^uint64(m)<<1, func(tr int, src *prng.Source) float64 {
		leaders := src.Binomial(m, p.LeaderProb())
		pop := PreparedEvalRandomColors(p, m, leaders, src)
		pr := protocol.MustNew(p)
		eng, err := sim.NewFromPopulation(sim.Config{
			Workers:  1,
			Params:   p,
			Protocol: pr,
			Seed:     src.Uint64(),
			Matcher:  match.FromScheduler(match.Uniform{Gamma: gamma}),
		}, pop)
		if err != nil {
			panic(err) // static configuration; cannot fail after validation
		}
		rep := eng.RunRound()
		return float64(rep.SizeAfter - rep.SizeBefore)
	})
	var s stats.Summary
	s.AddAll(deltas)
	return &s
}

// E7 — the restoring drift of Lemma 8: displaced populations drift back
// toward the fixed point, in expectation, with magnitude Θ(√N·δ·γ).
func init() {
	register(&Experiment{
		ID:    "E7",
		Title: "Restoring drift (Lemma 8)",
		Claim: "Lemma 8: if m ∈ [(1−α)N, (1−α/2)N] the expected per-epoch change is +Ω(√N); " +
			"if m ∈ [(1+α/2)N, (1+α)N] it is −Ω(√N)",
		Run: runE7,
	})
}

func runE7(cfg Config) (*Result, error) {
	n := 4096
	trials := 4000
	if cfg.Scale == Full {
		n = 16384
		trials = 8000
	}
	p, err := paramsFor(n, cfg.Scale)
	if err != nil {
		return nil, err
	}
	mStar := p.PredictedEquilibrium()
	// Displacements relative to the finite-N fixed point m* = N − 8√N.
	fractions := []float64{0.50, 0.75, 1.0, 1.25, 1.5, 2.0}
	res := &Result{}
	table := Table{
		Title: fmt.Sprintf("one-round eval drift at N=%d (m* = N−16√N = %d), γ=%.2f, %d trials/point",
			n, mStar, p.Gamma, trials),
		Cols: []string{"m/m*", "m", "drift", "stderr", "sign"},
	}
	signsOK := true
	for _, f := range fractions {
		m := int(f * float64(mStar))
		s := evalDriftAt(p, m, p.Gamma, trials, cfg)
		sign := "≈0"
		// Significance: 3 standard errors.
		switch {
		case s.Mean() > 3*s.StdErr():
			sign = "+"
		case s.Mean() < -3*s.StdErr():
			sign = "−"
		}
		// Require significant signs only at clear displacements; near the
		// fixed point the drift crosses zero (its defining property), so
		// intermediate rows are descriptive.
		wantSign := "≈0"
		if f <= 0.6 {
			wantSign = "+"
		} else if f >= 1.45 {
			wantSign = "−"
		}
		if wantSign != "≈0" && sign != wantSign {
			signsOK = false
		}
		table.AddRow(fmtF(f), fmtI(m), fmtF(s.Mean()), fmtF(s.StdErr()), sign)
	}
	res.Tables = append(res.Tables, table)
	res.Verdict = verdict(signsOK,
		"drift is significantly positive below m* and negative above, as Lemma 8 predicts",
		"drift sign wrong at some displacement; see table")
	res.Notes = append(res.Notes,
		"the finite-N fixed point is m* = N − 16√N because the paper's split deficit 16/√N is "+
			"not asymptotically negligible at laptop N (8√N from the per-decision balance plus "+
			"8√N from the L²-weighting of decision counts); m* → N as N → ∞ and m* is well "+
			"inside the admissible interval (see EXPERIMENTS.md)")
	return res, nil
}

// E8 — recovery (Lemma 9): after a displacement to the interval edge, the
// population returns toward the target.
func init() {
	register(&Experiment{
		ID:    "E8",
		Title: "Recovery from displacement (Lemma 9)",
		Claim: "Lemma 9: a population displaced outside [(1−α/2)N, (1+α/2)N] returns to that " +
			"interval within a bounded number of epochs w.h.p.",
		Run: runE8,
	})
}

func runE8(cfg Config) (*Result, error) {
	n := 4096
	maxEpochs := 700
	gamma := 1.0 // strongest drift per epoch; Theorem holds for any constant γ
	if cfg.Scale == Full {
		maxEpochs = 1500
	}
	p, err := paramsFor(n, cfg.Scale, params.WithGamma(gamma))
	if err != nil {
		return nil, err
	}
	mStar := p.PredictedEquilibrium()
	res := &Result{}
	table := Table{
		Title: fmt.Sprintf("epochs to halve the displacement from m* = %d (N=%d, γ=%.1f)", mStar, n, gamma),
		Cols:  []string{"start", "direction", "halved at epoch", "end size"},
	}
	ok := true
	// Displace to the interval edges (1−α)N and (1+α)N, the setting of
	// Lemma 9.
	lo, hi := p.Bounds()
	for _, start := range []int{lo, hi} {
		eng, err := newSim(p, cfg.Seed, popstab.Spec{InitialSize: start})
		if err != nil {
			return nil, err
		}
		disp := start - mStar
		if disp < 0 {
			disp = -disp
		}
		target := disp / 2
		halvedAt := -1
		for ep := 0; ep < maxEpochs; ep++ {
			eng.RunEpoch()
			d := eng.Size() - mStar
			if d < 0 {
				d = -d
			}
			if d <= target {
				halvedAt = ep
				break
			}
		}
		dir := "up"
		if start > mStar {
			dir = "down"
		}
		cell := "not reached"
		if halvedAt >= 0 {
			cell = fmtI(halvedAt)
		} else {
			ok = false
		}
		table.AddRow(fmtI(start), dir, cell, fmtI(eng.Size()))
	}
	res.Tables = append(res.Tables, table)
	res.Verdict = verdict(ok,
		"displacements are halved within the epoch budget in both directions",
		"recovery too slow at this scale; see table")
	res.Notes = append(res.Notes,
		"recovery speed is Θ(√N·γ/64) agents/epoch — sure but slow at laptop N; the paper's "+
			"N^{0.01}-epoch recovery window is asymptotic")
	return res, nil
}

// E16 — the finite-size equilibrium: the long-run population concentrates
// near m* = N − 8√N, an explicit finite-N refinement of the paper's
// asymptotic statement.
func init() {
	register(&Experiment{
		ID:    "E16",
		Title: "Finite-size equilibrium m* = N − 8√N",
		Claim: "refinement: the evaluation drift's fixed point at finite N is m* = N − 16√N " +
			"(→ N asymptotically); the long-run mean population sits near m*, inside the interval",
		Run: runE16,
	})
}

func runE16(cfg Config) (*Result, error) {
	n := 4096
	epochs := 400
	burn := 100
	if cfg.Scale == Full {
		epochs = 2000
		burn = 500
	}
	p, err := paramsFor(n, cfg.Scale, params.WithGamma(1.0))
	if err != nil {
		return nil, err
	}
	mStar := float64(p.PredictedEquilibrium())
	// Start at the predicted fixed point and test that the population
	// stays there (rather than drifting back up to N): the relaxation time
	// Θ(m*/√N) epochs makes approach-from-N runs much longer.
	eng, err := newSim(p, cfg.Seed, popstab.Spec{InitialSize: p.PredictedEquilibrium()})
	if err != nil {
		return nil, err
	}
	var s stats.Summary
	for ep := 0; ep < epochs; ep++ {
		rep := eng.RunEpoch()
		if ep >= burn {
			s.Add(float64(rep.EndSize))
		}
	}
	res := &Result{}
	table := Table{
		Title: fmt.Sprintf("long-run population (N=%d, γ=1, %d epochs after %d burn-in)", n, epochs-burn, burn),
		Cols:  []string{"predicted m*", "measured mean", "measured std", "N", "mean closer to m* than N"},
	}
	closerToStar := absF(s.Mean()-mStar) < absF(s.Mean()-float64(p.N))
	table.AddRow(fmtF(mStar), fmtF(s.Mean()), fmtF(s.Std()), fmtI(p.N), fmt.Sprintf("%v", closerToStar))
	res.Tables = append(res.Tables, table)
	res.Verdict = verdict(closerToStar && s.Mean() > float64(p.N)/2,
		"long-run mean concentrates near the predicted finite-N fixed point",
		"long-run mean not near m*; see table")
	return res, nil
}

func absF(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
