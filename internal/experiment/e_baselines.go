package experiment

import (
	"fmt"
	"math"

	"popstab"
	"popstab/internal/baseline"
	"popstab/internal/sim"
	"popstab/internal/stats"
)

// E9 — Attempt 1 fails: the non-interactive leader election baseline is
// destroyed by leader-targeted insertion or deletion.
func init() {
	register(&Experiment{
		ID:    "E9",
		Title: "Attempt 1 (leader election) fails under attack",
		Claim: "§1.3.1: \"The adversary can either insert an agent with coin value c = 1 in each " +
			"phase, or else identify the agents with coin value 1 and selectively remove these " +
			"agents. Consequently the adversary can cause the population to grow or shrink arbitrarily.\"",
		Run: runE9,
	})
}

func runE9(cfg Config) (*Result, error) {
	n := 4096
	maxEpochs := 40
	p, err := paramsFor(n, cfg.Scale)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	table := Table{
		Title: fmt.Sprintf("Attempt 1 at N=%d: epochs until the population leaves [N/2, 2N]", n),
		Cols:  []string{"adversary", "budget/round", "outcome", "epochs", "final size"},
	}
	a1 := baseline.MustNewAttempt1(p)
	outcomes := map[string]string{}
	// record runs one arm until the population leaves [N/2, 2N] or the
	// epochs run out.
	record := func(name string, k int, eng interface {
		RunRound() sim.RoundReport
		Size() int
	}) {
		outcome, ep := "stable", maxEpochs
		for e := 0; e < maxEpochs && outcome == "stable"; e++ {
			for r := 0; r < a1.EpochLen(); r++ {
				eng.RunRound()
			}
			switch {
			case eng.Size() < p.N/2:
				outcome, ep = "collapse", e
			case eng.Size() > 2*p.N:
				outcome, ep = "explode", e
			}
		}
		outcomes[name] = outcome
		table.AddRow(name, fmtI(k), outcome, fmtI(ep), fmtI(eng.Size()))
	}
	none, err := newSim(p, cfg.Seed, popstab.Spec{Protocol: "attempt1"})
	if err != nil {
		return nil, err
	}
	record("none", 0, none)
	// The attacks read Attempt 1's internals, which no Spec names.
	record("suppressor (insert heard=1)", 1, sim.MustNew(sim.Config{Params: p, Protocol: baseline.MustNewAttempt1(p),
		Workers: 1,
		Seed:    cfg.Seed, K: 1, Adversary: baseline.NewAttempt1Suppressor(a1)}))
	record("igniter (delete carriers)", p.MaxTolerableK(), sim.MustNew(sim.Config{Params: p, Protocol: baseline.MustNewAttempt1(p),
		Workers: 1,
		Seed:    cfg.Seed, K: p.MaxTolerableK(), Adversary: baseline.NewAttempt1Igniter(a1)}))
	res.Tables = append(res.Tables, table)
	ok := outcomes["none"] == "stable" &&
		outcomes["suppressor (insert heard=1)"] == "collapse" &&
		outcomes["igniter (delete carriers)"] == "explode"
	res.Verdict = verdict(ok,
		"stable alone, collapses under insertion, explodes under leader deletion — both predicted attacks succeed",
		"attack outcomes differ from the paper's analysis; see table")
	return res, nil
}

// E10 — Attempt 2 random-walks even without an adversary, while the main
// protocol holds.
func init() {
	register(&Experiment{
		ID:    "E10",
		Title: "Attempt 2 (independent coloring) random-walks",
		Claim: "§1.3.1: \"despite a very weak bias to correct drifts ... the size of the population " +
			"under this protocol will behave very much like a random walk\" — even with no adversary",
		Run: runE10,
	})
}

func runE10(cfg Config) (*Result, error) {
	n := 4096
	epochsEq := 20 // horizon in main-protocol epochs
	trials := 3
	if cfg.Scale == Full {
		epochsEq = 40
		trials = 5
	}
	p, err := paramsFor(n, cfg.Scale)
	if err != nil {
		return nil, err
	}
	horizon := epochsEq * p.T
	res := &Result{}
	table := Table{
		Title: fmt.Sprintf("max |m−N| over %d rounds, no adversary, %d trials", horizon, trials),
		Cols:  []string{"protocol", "mean max|m−N|", "max max|m−N|", "as fraction of N"},
	}
	measure := func(protocol string) (mean, worst float64, err error) {
		var s stats.Summary
		for tr := 0; tr < trials; tr++ {
			eng, err := newSim(p, cfg.Seed+uint64(tr)*104729, popstab.Spec{Protocol: protocol})
			if err != nil {
				return 0, 0, err
			}
			maxDev := 0.0
			for r := 0; r < horizon; r++ {
				eng.RunRound()
				if d := math.Abs(float64(eng.Size() - p.N)); d > maxDev {
					maxDev = d
				}
			}
			s.Add(maxDev)
		}
		return s.Mean(), s.Max(), nil
	}
	a2Mean, a2Worst, err := measure("attempt2")
	if err != nil {
		return nil, err
	}
	mainMean, mainWorst, err := measure("paper")
	if err != nil {
		return nil, err
	}
	table.AddRow("attempt2", fmtF(a2Mean), fmtF(a2Worst), fmtF(a2Worst/float64(p.N)))
	table.AddRow("main protocol", fmtF(mainMean), fmtF(mainWorst), fmtF(mainWorst/float64(p.N)))
	res.Tables = append(res.Tables, table)
	ok := a2Mean > 4*mainMean
	res.Verdict = verdict(ok,
		"Attempt 2 wanders ≫ the main protocol over the same horizon (random-walk behavior)",
		"Attempt 2 did not wander as predicted; see table")
	res.Notes = append(res.Notes,
		"Attempt 2's restoring signal is Θ(1/m) per decision vs the main protocol's Θ(√N/m): "+
			"the noise dominates and the size diffuses")
	return res, nil
}

// E15 — the high-memory baseline: counting works against deletion-only
// adversaries and collapses against fabricated-state insertion.
func init() {
	register(&Experiment{
		ID:    "E15",
		Title: "High-memory unique-ID baseline (§1.2)",
		Claim: "§1.2: with unbounded memory, identifier gossip solves the problem when the " +
			"adversary can only delete; arbitrary-state insertion defeats it (fabricated ID sets)",
		Run: runE15,
	})
}

func runE15(cfg Config) (*Result, error) {
	n := 512
	epochs := 8
	if cfg.Scale == Full {
		n = 1024
		epochs = 12
	}
	res := &Result{}
	table := Table{
		Title: fmt.Sprintf("high-memory protocol at N=%d over %d gossip intervals", n, epochs),
		Cols:  []string{"adversary", "final size", "in [(1−α)N,(1+α)N]", "peak bits/agent"},
	}
	alpha := 0.5
	lo, hi := int(float64(n)*(1-alpha)), int(float64(n)*(1+alpha))
	inBand := func(v int) string {
		if v >= lo && v <= hi {
			return "yes"
		}
		return "no"
	}

	// Arm 1: deletion-only adversary at 2% per interval plus one acute 40% trauma.
	h1, err := baseline.NewHighMemory(baseline.HighMemConfig{N: n, Gamma: 0.5, Alpha: alpha, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	peakBits := 0.0
	h1.DeleteRandom(n * 2 / 5)
	for ep := 0; ep < epochs; ep++ {
		h1.DeleteRandom(n / 50)
		h1.RunEpoch()
		if b := h1.MemoryBitsPerAgent(); b > peakBits {
			peakBits = b
		}
	}
	table.AddRow("deletion-only (40% trauma + 2%/interval)", fmtI(h1.Size()), inBand(h1.Size()), fmtF(peakBits))
	deletionOK := h1.Size() >= lo && h1.Size() <= hi

	// Arm 2: fabricated-state insertion, 2 agents per interval carrying 2N fake IDs.
	h2, err := baseline.NewHighMemory(baseline.HighMemConfig{N: n, Gamma: 0.5, Alpha: alpha, Seed: cfg.Seed + 1})
	if err != nil {
		return nil, err
	}
	peakBits = 0
	for ep := 0; ep < epochs; ep++ {
		h2.InsertFabricated(2, 2*n)
		h2.RunEpoch()
		if b := h2.MemoryBitsPerAgent(); b > peakBits {
			peakBits = b
		}
	}
	table.AddRow("insertion (2 poisoned/interval)", fmtI(h2.Size()), inBand(h2.Size()), fmtF(peakBits))
	poisonOK := h2.Size() < lo

	res.Tables = append(res.Tables, table)
	res.Verdict = verdict(deletionOK && poisonOK,
		"deletion-only arm holds the band; fabricated-ID insertion collapses it — as §1.2 argues",
		"high-memory baseline behavior differs; see table")
	res.Notes = append(res.Notes,
		fmt.Sprintf("peak memory ≈ %.0f bits/agent at N=%d versus the main protocol's Θ(log log N) ≈ 5 bits of coin-counter state", peakBits, n),
		"64-bit identifiers stand in for the paper's N-bit random IDs (collision-free at simulated scales)")
	return res, nil
}
