package experiment

import (
	"fmt"

	"popstab"
)

// A7 — the cross-product scenarios the paper leaves open, reachable only
// since the engine unification: a budgeted adversary under geometric
// communication, and malicious programs on the spatial torus. The two
// effects point in opposite directions: local matching breaks the honest
// size signal (the population escapes the admissible interval even with no
// adversary, and budget accelerates the escape), yet it tightens
// malicious-program containment (scattered rogues meet an honest neighbor
// almost every round, so the effective cull rate is ≈ 1 instead of γ).
func init() {
	register(&Experiment{
		ID:    "A7",
		Title: "Adversary budget sweep under geometric communication",
		Claim: "§1.2 open question: topology and intervention are orthogonal axes — under " +
			"nearest-neighbor matching the variance signal floors, so the population drifts out " +
			"of [(1−α)N, (1+α)N] even at budget 0 and the adversary only accelerates the escape; " +
			"conversely the same locality raises the per-round contact rate to ≈ 1, so malicious " +
			"programs are culled below the well-mixed threshold R* = ln2/(−ln(1−γ)) ≈ 2.41",
		Run: runA7,
	})
}

func runA7(cfg Config) (*Result, error) {
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
	mixed, torus := locality{"mixed", 0}, locality{"torus", 0}

	// Table 1: greedy adversary at a per-epoch budget grid, well-mixed vs
	// torus. Same seed per cell: the engine's stream separation makes the
	// arms a paired comparison.
	base := p.MaxTolerableK()
	budgets := []int{0, base, 4 * base, 16 * base}
	t1 := Table{
		Title: fmt.Sprintf("greedy adversary budget sweep, N=%d, %d epochs (early exit at 4N)", n, epochs),
		Cols:  []string{"topology", "budget", "first violation (epoch)", "end size", "maxDev"},
	}
	cells := map[locality]map[int]stabilityOutcome{mixed: {}, torus: {}}
	for _, topo := range []locality{mixed, torus} {
		for _, b := range budgets {
			c, err := runEpochs(p, cfg.Seed, topo.on(paced("greedy", b)), epochs, 4*p.N)
			if err != nil {
				return nil, err
			}
			cells[topo][b] = c
			t1.AddRow(topo.String(), budgetLabel(b), c.firstViolation(), fmtI(c.endSize), fmtF(c.maxDevFrac(p.N)))
		}
	}
	res.Tables = append(res.Tables, t1)
	// The verdict asserts exactly what the claim says: the well-mixed arms
	// hold at and below the tolerated budget, while every torus arm —
	// including budget 0 — escapes, and budget only accelerates the escape.
	sweepOK := cells[mixed][0].violatedAt < 0 && cells[mixed][base].violatedAt < 0
	for _, b := range budgets {
		sweepOK = sweepOK && cells[torus][b].violatedAt >= 0
	}
	sweepOK = sweepOK && cells[torus][16*base].violatedAt <= cells[torus][0].violatedAt

	// Table 2: malicious programs on the torus (rogue×geo). Scattered
	// rogues on the torus face a contact (and therefore cull) rate of ≈ 1
	// per round, so even replication periods far below the well-mixed
	// threshold are contained.
	horizon := 2 * p.T
	t2 := Table{
		Title: fmt.Sprintf("rogue cohort of 64 vs replication period R, mixed vs torus (detect=1, ≤%d rounds; well-mixed R* ≈ 2.41)", horizon),
		Cols:  []string{"R", "topology", "rogues left", "honest size", "rogue kills", "outcome"},
	}
	contained := map[locality]map[int]bool{mixed: {}, torus: {}}
	for _, r := range []int{1, 2, 3, 6} {
		for _, topo := range []locality{mixed, torus} {
			out, err := runCohort(p, cfg.Seed, topo.on(popstab.Spec{Rogue: rogues(r, 1)}), horizon)
			if err != nil {
				return nil, err
			}
			contained[topo][r] = out.contained()
			t2.AddRow(fmtI(r), topo.String(), fmtI(out.rogues), fmtI(out.honest),
				fmtI(out.kills), out.label())
		}
	}
	res.Tables = append(res.Tables, t2)
	// Verdict rests on the robust rows: R=2 separates the topologies (torus
	// contained, well-mixed takeover since 2 < R*), and both contain R ≥ 3.
	// The torus R=1 row is metastable — see the patch-shielding note — so it
	// is reported but not asserted.
	rogueOK := !contained[mixed][1] && !contained[mixed][2] &&
		contained[mixed][3] && contained[mixed][6] &&
		contained[torus][2] && contained[torus][3] && contained[torus][6]

	res.Verdict = verdict(sweepOK && rogueOK,
		"topology and intervention compose as orthogonal axes: geometric matching destabilizes "+
			"the honest size signal (escape even at budget 0 on the torus, faster with budget) while "+
			"simultaneously tightening malicious-program containment (R=2 contained on the torus vs "+
			"takeover below R* ≈ 2.41 well-mixed)",
		"cross-product behavior differs; see tables")
	res.Notes = append(res.Notes,
		"both effects have one cause: local matching raises the per-round contact rate toward 1 "+
			"and correlates contacts spatially — the same-color signal saturates (A5), so evaluation "+
			"over-splits and the population escapes upward; a scattered rogue, meanwhile, is matched "+
			"by an honest neighbor almost every round and is culled before its cooldown expires",
		"R=1 on the torus is metastable patch shielding: daughters spawn next to their parent and "+
			"rogue-rogue matches trigger no detection, so a rogue that replicates every round can "+
			"grow a contiguous patch whose interior is unreachable by honest culling — locality "+
			"tightens the threshold but does not beat unbounded replication",
		"the torus arms run on the unified engine (match.Torus + rogue.Overlay over internal/sim); "+
			"the pre-unification spatial engine supported neither adversaries nor rogue programs")
	return res, nil
}
