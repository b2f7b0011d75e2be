package experiment

import (
	"fmt"

	"popstab/internal/adversary"
	"popstab/internal/match"
	"popstab/internal/params"
	"popstab/internal/protocol"
	"popstab/internal/sim"
)

// A1 — remove the round-consistency check: the desynchronization attack
// then wins, demonstrating why Algorithm 7 exists.
func init() {
	register(&Experiment{
		ID:    "A1",
		Title: "Ablation: disable CheckRoundConsistency (Algorithm 7)",
		Claim: "design choice: without the consistency check, adversarially inserted wrong-round " +
			"agents accumulate and disrupt the epoch structure (paper §1.3.2)",
		Run: runA1,
	})
}

func runA1(cfg Config) (*Result, error) {
	n := 4096
	epochs := 15
	if cfg.Scale == Full {
		epochs = 30
	}
	p, err := paramsFor(n, cfg.Scale)
	if err != nil {
		return nil, err
	}
	budget := p.MaxTolerableK() * 4
	res := &Result{}
	table := Table{
		Title: fmt.Sprintf("wrong-round inserter at %d/epoch, N=%d, %d epochs", budget, n, epochs),
		Cols:  []string{"consistency check", "final wrongRound agents", "wrongRound fraction", "maxDev"},
	}
	arm := func(opts ...protocol.Option) (wrong int, frac, maxDev float64, err error) {
		pr, err := protocol.New(p, opts...)
		if err != nil {
			return 0, 0, 0, err
		}
		paced := adversary.NewPaced(adversary.PerEpoch(p.T, budget, 1),
			adversary.NewWrongRoundInserter(p.T/2))
		eng, err := sim.New(sim.Config{Params: p, Protocol: pr, Seed: cfg.Seed, K: 1, Adversary: paced, Workers: 1})
		if err != nil {
			return 0, 0, 0, err
		}
		for ep := 0; ep < epochs; ep++ {
			rep := eng.RunEpoch()
			d := absF(float64(rep.MinSize-p.N)) / float64(p.N)
			if d2 := absF(float64(rep.MaxSize-p.N)) / float64(p.N); d2 > d {
				d = d2
			}
			if d > maxDev {
				maxDev = d
			}
		}
		c := eng.Census()
		return c.WrongRound, float64(c.WrongRound) / float64(c.Total), maxDev, nil
	}
	wOn, fOn, dOn, err := arm()
	if err != nil {
		return nil, err
	}
	wOff, fOff, dOff, err := arm(protocol.WithoutRoundCheck())
	if err != nil {
		return nil, err
	}
	table.AddRow("enabled", fmtI(wOn), fmtF(fOn), fmtF(dOn))
	table.AddRow("disabled", fmtI(wOff), fmtF(fOff), fmtF(dOff))
	res.Tables = append(res.Tables, table)
	ok := wOff > 4*wOn
	res.Verdict = verdict(ok,
		"without the check, wrong-round agents accumulate unchecked (they never get culled)",
		"ablation inconclusive; see table")
	return res, nil
}

// A2 — shrink Tinner below ω(log N): recruitment trees fail to fill and the
// variance signal weakens.
func init() {
	register(&Experiment{
		ID:    "A2",
		Title: "Ablation: subphase length below ω(log N)",
		Claim: "design choice: Tinner = ω(log N) (footnote 5) is needed for every recruiter to find " +
			"an inactive agent per subphase; shorter subphases leave clusters incomplete",
		Run: runA2,
	})
}

func runA2(cfg Config) (*Result, error) {
	n := 4096
	epochs := 6
	if cfg.Scale == Full {
		epochs = 12
	}
	logN := logOf(n)
	res := &Result{}
	table := Table{
		Title: fmt.Sprintf("recruitment completeness vs Tinner at N=%d (γ=0.25)", n),
		Cols:  []string{"Tinner", "vs logN", "miss rate", "colored fraction of design point"},
	}
	type point struct {
		tinner   int
		missRate float64
	}
	var pts []point
	for _, tinner := range []int{logN / 2, logN, 2 * logN, 4 * logN, 8 * logN} {
		p, err := params.Derive(n, params.WithUnsafeTinner(tinner))
		if err != nil {
			return nil, err
		}
		pr, err := protocol.New(p)
		if err != nil {
			return nil, err
		}
		eng, err := sim.New(sim.Config{Params: p, Protocol: pr, Seed: cfg.Seed, Workers: 1})
		if err != nil {
			return nil, err
		}
		active, incomplete := 0, 0
		colored := 0.0
		for ep := 0; ep < epochs; ep++ {
			eng.RunRounds(p.T - 1)
			c := eng.Census()
			active += c.Active
			for d := 1; d < len(c.ByToRecruit); d++ {
				incomplete += c.ByToRecruit[d]
			}
			colored += float64(c.Active) / float64(c.Total)
			eng.RunRounds(1)
		}
		rate := 0.0
		if active > 0 {
			rate = float64(incomplete) / float64(active)
		}
		pts = append(pts, point{tinner, rate})
		table.AddRow(fmtI(tinner), fmt.Sprintf("%.1fx", float64(tinner)/float64(logN)),
			fmt.Sprintf("%.4f", rate), fmtF(colored/float64(epochs)/0.125))
	}
	res.Tables = append(res.Tables, table)
	ok := pts[0].missRate > 10*pts[len(pts)-1].missRate && pts[0].missRate > 0.05
	res.Verdict = verdict(ok,
		"short subphases leave a large fraction of recruiters unfinished; misses vanish past ω(log N)",
		"miss-rate gradient not observed; see table")
	return res, nil
}

// A3 — adversary timing: acting before vs after the protocol step changes
// little, because the adversary never knows the upcoming matching either way.
func init() {
	register(&Experiment{
		ID:    "A3",
		Title: "Ablation: adversary timing within the round",
		Claim: "model choice: the adversary acts before the matching is drawn; giving it the turn " +
			"after the protocol step instead does not change the protocol's stability",
		Run: runA3,
	})
}

func runA3(cfg Config) (*Result, error) {
	n := 4096
	epochs := 15
	if cfg.Scale == Full {
		epochs = 30
	}
	p, err := paramsFor(n, cfg.Scale)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	table := Table{
		Title: fmt.Sprintf("greedy adversary at %d/epoch, N=%d, %d epochs", p.MaxTolerableK(), n, epochs),
		Cols:  []string{"timing", "maxDev", "violated"},
	}
	ok := true
	for _, after := range []bool{false, true} {
		pr, err := protocol.New(p)
		if err != nil {
			return nil, err
		}
		paced := adversary.NewPaced(adversary.PerEpoch(p.T, p.MaxTolerableK(), 1), adversary.NewGreedy())
		eng, err := sim.New(sim.Config{Params: p, Protocol: pr, Seed: cfg.Seed, K: 1,
			Workers:   1,
			Adversary: paced, AdversaryAfterStep: after})
		if err != nil {
			return nil, err
		}
		lo, hi := p.Bounds()
		maxDev, violated := 0.0, "no"
		for ep := 0; ep < epochs; ep++ {
			rep := eng.RunEpoch()
			if rep.MinSize < lo || rep.MaxSize > hi {
				violated = "yes"
				ok = false
			}
			if d := absF(float64(rep.MinSize-p.N)) / float64(p.N); d > maxDev {
				maxDev = d
			}
			if d := absF(float64(rep.MaxSize-p.N)) / float64(p.N); d > maxDev {
				maxDev = d
			}
		}
		name := "before matching (model)"
		if after {
			name = "after step (ablation)"
		}
		table.AddRow(name, fmtF(maxDev), violated)
	}
	res.Tables = append(res.Tables, table)
	res.Verdict = verdict(ok,
		"stability holds under both timings",
		"timing changed the outcome; see table")
	return res, nil
}

// A4 — scheduler variants: the protocol needs Ω(m) interactions per round;
// γ-matchings of any constant fraction work, the sequential (one pair per
// tick) scheduler of the classical population model does not.
func init() {
	register(&Experiment{
		ID:    "A4",
		Title: "Ablation: communication schedulers",
		Claim: "model choice: the synchronous γ-matching is essential — under the classical " +
			"sequential scheduler (one interaction per tick) the epoch structure starves (§1.2 \"Synchrony\")",
		Run: runA4,
	})
}

func runA4(cfg Config) (*Result, error) {
	n := 4096
	epochs := 8
	if cfg.Scale == Full {
		epochs = 15
	}
	p, err := paramsFor(n, cfg.Scale)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	table := Table{
		Title: fmt.Sprintf("recruitment health per scheduler, N=%d, %d epochs", n, epochs),
		Cols:  []string{"scheduler", "colored frac at eval (design 0.125)", "recruit misses/epoch", "stable"},
	}
	schedulers := []match.Scheduler{
		match.Uniform{Gamma: 0.25},
		match.Full{},
		match.Bernoulli{Participate: 0.25},
		match.Sequential{},
	}
	healthyByName := map[string]bool{}
	for _, sched := range schedulers {
		pr, err := protocol.New(p)
		if err != nil {
			return nil, err
		}
		eng, err := sim.New(sim.Config{Params: p, Protocol: pr, Seed: cfg.Seed, Scheduler: sched, Workers: 1})
		if err != nil {
			return nil, err
		}
		colored := 0.0
		for ep := 0; ep < epochs; ep++ {
			eng.RunRounds(p.T - 1)
			c := eng.Census()
			colored += float64(c.Active) / float64(c.Total)
			eng.RunRounds(1)
		}
		coloredFrac := colored / float64(epochs)
		misses := float64(pr.Counters().RecruitMisses) / float64(epochs)
		stable := "yes"
		if lo, hi := p.Bounds(); eng.Size() < lo || eng.Size() > hi {
			stable = "no"
		}
		healthy := coloredFrac > 0.06 // at least half the design point
		healthyByName[sched.Name()] = healthy
		table.AddRow(sched.Name(), fmtF(coloredFrac), fmtF(misses), stable)
	}
	res.Tables = append(res.Tables, table)
	ok := healthyByName["uniform(0.25)"] && healthyByName["full"] &&
		healthyByName["bernoulli(0.25)"] && !healthyByName["sequential"]
	res.Verdict = verdict(ok,
		"all Ω(m)-interaction schedulers sustain the epoch structure; the sequential scheduler starves recruitment",
		"scheduler sensitivity differs; see table")
	return res, nil
}
