package experiment

import (
	"fmt"

	"popstab"
)

// A8 — the topology gallery sweep enabled by the sharded spatial pipeline:
// adversary budget × communication locality, and malicious-program
// containment threshold R* × locality. Locality is swept through five
// matchers of decreasing mixing — well-mixed, small-world at rewiring
// β = 0.5 and β = 0.1, bounded grid, 2-torus, and 1-D ring — and the two
// halves of the experiment show the same knob moving two responses in
// opposite directions, non-monotonically:
//
//   - the honest size signal survives only where matching is
//     well-mixed-like (mixed, β = 0.5) or one-dimensional (ring, whose
//     neighborhoods mix slowly but evenly); 2-D locality and weak rewiring
//     floor the variance signal and the population escapes even at budget
//     0 (A5/A7);
//   - the containment threshold R* moves the other way: 2-D locality
//     raises the contact rate toward 1 and contains R = 2 < R* ≈ 2.41,
//     strong rewiring contains even R = 1 (long-range contacts reach patch
//     interiors), but 1-D locality destroys containment at every tested R
//     — a rogue arc's interior is unreachable (patch shielding is
//     strongest where the boundary-to-volume ratio is lowest).
func init() {
	register(&Experiment{
		ID:    "A8",
		Title: "Topology gallery: adversary budget × locality, and the containment threshold R*",
		Claim: "locality degree is a control knob with opposed effects: stepping mixed → " +
			"small-world → grid/torus → ring trades the honest size signal (intact only on " +
			"well-mixed-like and 1-D topologies at tolerated budgets) against malicious-program " +
			"containment (R* drops below 2 under 2-D locality, reaches R=1 under strong rewiring, " +
			"and diverges on the ring, where patch shielding defeats every tested R)",
		Run: runA8,
	})
}

// ladder is A8's topology gallery, in decreasing order of mixing.
var ladder = []locality{
	{"mixed", 0},
	{"smallworld", 0.5},
	{"smallworld", 0.1},
	{"grid", 0},
	{"torus", 0},
	{"ring", 0},
}

func runA8(cfg Config) (*Result, error) {
	n := 4096
	// The sweep assertions are calibrated at this horizon; Full deepens
	// the rogue horizon below but keeps the epoch count (the qualitative
	// escape/hold split is established well before epoch 15).
	epochs := 15
	p, err := paramsFor(n, cfg.Scale)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	base := p.MaxTolerableK()
	budgets := []int{0, base, 16 * base}

	// Table 1: greedy adversary budget sweep across the locality ladder.
	// Same seed per cell: the engine's stream separation makes the arms a
	// paired comparison.
	t1 := Table{
		Title: fmt.Sprintf("greedy adversary budget sweep across topologies, N=%d, %d epochs (early exit at 4N)", n, epochs),
		Cols:  []string{"topology", "budget", "first violation (epoch)", "end size", "maxDev"},
	}
	viol := map[string]map[int]int{} // topology -> budget -> first violation epoch (-1 none)
	for _, topo := range ladder {
		viol[topo.String()] = map[int]int{}
		for _, b := range budgets {
			c, err := runEpochs(p, cfg.Seed, topo.on(paced("greedy", b)), epochs, 4*p.N)
			if err != nil {
				return nil, err
			}
			viol[topo.String()][b] = c.violatedAt
			t1.AddRow(topo.String(), budgetLabel(b), c.firstViolation(), fmtI(c.endSize), fmtF(c.maxDevFrac(p.N)))
		}
	}
	res.Tables = append(res.Tables, t1)

	// The sweep verdict asserts only the cross-seed-robust rows: the
	// well-mixed-like and 1-D topologies hold at and below the tolerated
	// budget, 2-D locality (torus) and weak rewiring escape at every
	// budget, grid escapes once budgeted, and everything escapes at
	// 16×base. (Grid at budget 0 straddles the 15-epoch horizon and is
	// reported, not asserted.)
	sweepOK := true
	for _, name := range []string{"mixed", "smallworld(0.5)", "ring"} {
		sweepOK = sweepOK && viol[name][0] < 0 && viol[name][base] < 0
	}
	for _, name := range []string{"torus", "smallworld(0.1)"} {
		for _, b := range budgets {
			sweepOK = sweepOK && viol[name][b] >= 0
		}
	}
	sweepOK = sweepOK && viol["grid"][base] >= 0
	for _, topo := range ladder {
		sweepOK = sweepOK && viol[topo.String()][16*base] >= 0
	}

	// Table 2: malicious-program containment threshold across the ladder.
	// A rogue cohort of 64 with per-contact detection 1 either dies out or
	// takes over within the horizon; R* is the replication period at which
	// the outcome flips.
	horizon := 2 * p.T
	if cfg.Scale == Full {
		horizon = 4 * p.T
	}
	t2 := Table{
		Title: fmt.Sprintf("rogue cohort of 64 vs replication period R across topologies (detect=1, ≤%d rounds; well-mixed R* ≈ 2.41)", horizon),
		Cols:  []string{"R", "topology", "rogues left", "honest size", "rogue kills", "outcome"},
	}
	contained := map[string]map[int]bool{}
	for _, topo := range ladder {
		contained[topo.String()] = map[int]bool{}
	}
	for _, r := range []int{1, 2, 3, 6} {
		for _, topo := range ladder {
			out, err := runCohort(p, cfg.Seed, topo.on(popstab.Spec{Rogue: rogues(r, 1)}), horizon)
			if err != nil {
				return nil, err
			}
			contained[topo.String()][r] = out.contained()
			t2.AddRow(fmtI(r), topo.String(), fmtI(out.rogues), fmtI(out.honest),
				fmtI(out.kills), out.label())
		}
	}
	res.Tables = append(res.Tables, t2)

	// Containment verdict, robust rows only: the threshold map
	//   smallworld(0.5): R* < 1   (contains everything, even R = 1)
	//   torus, grid:     R* ∈ (1, 2]  (contain R ≥ 2; R = 1 is metastable)
	//   mixed:           R* ≈ 2.41    (takeover at 2, contained at 3, 6)
	//   smallworld(0.1): near mixed   (takeover at 1-2; R = 3 straddles)
	//   ring:            no R* at any tested R (patch shielding)
	rogueOK := true
	for _, r := range []int{1, 2, 3, 6} {
		rogueOK = rogueOK && contained["smallworld(0.5)"][r]
		rogueOK = rogueOK && !contained["ring"][r]
	}
	for _, r := range []int{2, 3, 6} {
		rogueOK = rogueOK && contained["torus"][r] && contained["grid"][r]
	}
	rogueOK = rogueOK && !contained["mixed"][1] && !contained["mixed"][2] &&
		contained["mixed"][3] && contained["mixed"][6]
	rogueOK = rogueOK && !contained["smallworld(0.1)"][1] && !contained["smallworld(0.1)"][2] &&
		contained["smallworld(0.1)"][6]

	res.Verdict = verdict(sweepOK && rogueOK,
		"locality degree shifts both responses as claimed: the size signal survives on mixed, "+
			"smallworld(0.5), and ring at tolerated budgets while torus and smallworld(0.1) escape "+
			"even at budget 0; R* falls to ≤2 under 2-D locality, to ≤1 under β=0.5 rewiring, and "+
			"diverges on the ring",
		"locality map differs from the calibrated gallery; see tables")
	res.Notes = append(res.Notes,
		"the two effects share one mechanism pulling in opposite directions: locality raises the "+
			"per-round contact rate toward 1 (culling rogues faster) while correlating contacts "+
			"spatially (flooring the same-color size signal that keeps the honest population in band)",
		"the ring rows expose patch shielding at its 1-D extreme: rogue-rogue matches trigger no "+
			"detection and a rogue arc has an O(1) boundary, so interior replication outruns boundary "+
			"culling at every tested R — containment needs either dimension (larger patch boundary) or "+
			"long-range links (smallworld rewiring reaches arc interiors, containing even R=1)",
		"grid at budget 0 and torus/grid at R=1 straddle the horizon across seeds (metastable patch "+
			"dynamics, as in A7) and are reported but not asserted; smallworld(0.1) at R=3 likewise "+
			"sits on the well-mixed threshold R* ≈ 2.41",
		"all topologies run as match.Matcher instances on the unified engine over the sharded "+
			"spatial pipeline, so every cell inherits Workers sharding and full adversary support")
	return res, nil
}
