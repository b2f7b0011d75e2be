package experiment

import (
	"fmt"
	"math"

	"popstab"
)

// E17 — the §1.2 malicious-program extension: with agent-removal, program
// detection, and a replication-rate bound, the system survives malicious
// agents; remove any ingredient and it does not.
func init() {
	register(&Experiment{
		ID:    "E17",
		Title: "Malicious-program extension (§1.2)",
		Claim: "§1.2: population stability is impossible against agents running arbitrary malicious " +
			"programs, but the protocol extends to tolerate them given (1) a bound on malicious " +
			"replication frequency, (2) program-difference detection on contact, and (3) the " +
			"ability to remove encountered agents",
		Run: runE17,
	})
}

func runE17(cfg Config) (*Result, error) {
	n := 4096
	epochs := 3
	horizonRounds := 300
	if cfg.Scale == Full {
		epochs = 6
		horizonRounds = 600
	}
	p, err := paramsFor(n, cfg.Scale)
	if err != nil {
		return nil, err
	}
	res := &Result{}

	// Table 1: the containment threshold. A rogue survives each round with
	// probability 1−γ (cull on any honest contact) and doubles every R
	// rounds, so the per-round log growth is ln2/R + ln(1−γ): containment
	// iff R > R* = ln2 / (−ln(1−γ)) ≈ 2.41 at γ = 1/4.
	rStar := math.Ln2 / (-math.Log1p(-p.Gamma))
	t1 := Table{
		Title: fmt.Sprintf("rogue cohort of 64 vs replication period R (N=%d, γ=%.2f, detect=1, %d epochs; R* = %.2f)",
			n, p.Gamma, epochs, rStar),
		Cols: []string{"R (rounds/replication)", "log growth ln2/R", "log cull −ln(1−γ)", "rogues left", "outcome"},
	}
	thresholdOK := true
	for _, r := range []int{2, 3, 6, 12, 24} {
		out, err := runCohort(p, cfg.Seed, popstab.Spec{Rogue: rogues(r, 1)}, epochs*p.T)
		if err != nil {
			return nil, err
		}
		if out.contained() != (float64(r) > rStar) {
			thresholdOK = false
		}
		t1.AddRow(fmtI(r), fmtF(math.Ln2/float64(r)), fmtF(-math.Log1p(-p.Gamma)),
			fmtI(out.rogues), out.label())
	}
	res.Tables = append(res.Tables, t1)

	// Table 2: ingredient ablation at a fixed safe replication period.
	t2 := Table{
		Title: fmt.Sprintf("ingredient ablation (R=12, 64 initial rogues, %d rounds)", horizonRounds),
		Cols:  []string{"configuration", "rogues left", "honest size", "outcome"},
	}
	type arm struct {
		name   string
		r      int
		detect float64
	}
	arms := []arm{
		{"full extension (detect=1, R=12)", 12, 1},
		{"no detection (detect=0)", 12, 0},
		{"no rate bound (R=1, detect=1)", 1, 1},
	}
	ablationOK := true
	for idx, a := range arms {
		out, err := runCohort(p, cfg.Seed+uint64(idx), popstab.Spec{Rogue: rogues(a.r, a.detect)}, horizonRounds)
		if err != nil {
			return nil, err
		}
		// Only the full extension may contain the cohort.
		if out.contained() != (idx == 0) {
			ablationOK = false
		}
		t2.AddRow(a.name, fmtI(out.rogues), fmtI(out.honest), out.label())
	}
	res.Tables = append(res.Tables, t2)

	res.Verdict = verdict(thresholdOK && ablationOK,
		"containment exactly when replication is slower than the γ-cull rate; removing detection "+
			"or the rate bound lets rogues take over — all three ingredients are necessary, as §1.2 argues",
		"extension behavior differs from §1.2; see tables")
	res.Notes = append(res.Notes,
		"the containment threshold is a branching-process balance: per-round log growth ln2/R "+
			"vs log cull −ln(1−γ·h·detect), giving R* = ln2/(−ln(1−γ)) ≈ 2.41 rounds at γ=1/4")
	return res, nil
}
