package experiment

import (
	"fmt"

	"popstab"
)

// A9 — the patch-attack map enabled by the spatial adversary seam: the
// adversary now sees positions (adversary.View), chooses where insertions
// land (Mutator.InsertAt via the population.Positions placement seam),
// concentrates deletions in one ball (DeleteNear), and owns the SmallWorld
// long-range link assignment (match.RewireController). Three questions,
// one per table:
//
//  1. is concentrated deletion stronger than spread deletion? No —
//     strikingly, the opposite: on the ring a patch of deletions saturates
//     (the ball empties and further budget is wasted on an already-dead
//     arc) while the same budget spread uniformly drags the whole
//     population down. Patch shielding cuts both ways: what protects a
//     rogue patch from honest culling protects the honest bulk from
//     concentrated deletion.
//  2. does adversarial placement change the containment map of A8? Yes:
//     clustering the same rogue cohort (same size, same R, same budget 0)
//     flips the torus at R = 3 from contained to takeover — placement
//     alone is worth more than replication rate. On the ring every radius
//     takes over: there is NO arc-length threshold below which 1-D patch
//     shielding fails (even the tightest patch, and — per the cohort
//     sweep — even a single seeded rogue on lucky coins) because any
//     surviving pair of adjacent rogues is already a shielded arc.
//  3. can the adversary re-shield a patch on a rewired topology? Yes:
//     smallworld(0.5) contains the clustered cohort at every tested R, but
//     denying rewiring inside the patch flips R = 1 to takeover, and
//     denying it everywhere (degenerating the topology to the ring) flips
//     every tested R — at ZERO alteration budget, since link assignment is
//     communication-model state, not an insertion or deletion.
func init() {
	register(&Experiment{
		ID:    "A9",
		Title: "Patch attacks: placement, concentrated deletion, and adversarial rewiring",
		Claim: "position-aware attacks redraw the spatial containment map: clustered placement " +
			"flips torus containment at R=3, the ring has no arc-length containment threshold " +
			"(every patch radius takes over), rewiring denial re-shields patches on small-world " +
			"topologies at zero alteration budget — while concentrated deletion is strictly " +
			"weaker than spread deletion (the patch saturates)",
		Run: runA9,
	})
}

// a9Ball is the patch of radius r used throughout, centered at (0.5, 0.5)
// (any point works: the topologies are homogeneous, modulo the grid
// boundary, which A9 avoids).
func a9Ball(r float64) *popstab.BallSpec { return &popstab.BallSpec{X: 0.5, Y: 0.5, R: r} }

func runA9(cfg Config) (*Result, error) {
	n := 4096
	p, err := paramsFor(n, cfg.Scale)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	ring, torus := locality{"ring", 0}, locality{"torus", 0}
	sw1, sw5 := locality{"smallworld", 0.1}, locality{"smallworld", 0.5}
	base := p.MaxTolerableK()
	epochs := 12
	horizon := 2 * p.T
	if cfg.Scale == Full {
		horizon = 4 * p.T
	}

	// Table 1: concentrated vs spread deletion on the honest protocol.
	// Same per-epoch budget, same pacing; only the victim-selection rule
	// changes. delete-patch uses DeleteNear (nearest-first in one ball);
	// patch-combo alternates the ball's budget between deletion and
	// clustered fake-leader insertion (InsertAt).
	arms := []struct {
		name, adversary string
		r               float64 // patch radius; unread by delete-random
	}{
		{"delete-random", "delete-random", 0},
		{"delete-patch(0.02)", "delete-patch", 0.02},
		{"delete-patch(0.1)", "delete-patch", 0.1},
		{"patch-combo(0.05)", "patch-combo", 0.05},
	}
	t1 := Table{
		Title: fmt.Sprintf("concentrated vs spread alteration, N=%d, %d epochs, budgets/epoch {%d, %d}", n, epochs, base, 16*base),
		Cols:  []string{"topology", "strategy", "budget", "first violation (epoch)", "maxDev"},
	}
	t1out := map[locality]map[string]map[int]stabilityOutcome{} // topo -> arm -> budget
	for _, topo := range []locality{ring, torus} {
		t1out[topo] = map[string]map[int]stabilityOutcome{}
		for _, arm := range arms {
			t1out[topo][arm.name] = map[int]stabilityOutcome{}
			for _, b := range []int{base, 16 * base} {
				sp := paced(arm.adversary, b)
				sp.Patch = a9Ball(arm.r)
				c, err := runEpochs(p, cfg.Seed, topo.on(sp), epochs, 4*p.N)
				if err != nil {
					return nil, err
				}
				t1out[topo][arm.name][b] = c
				t1.AddRow(topo.String(), arm.name, budgetLabel(b), c.firstViolation(), fmtF(c.maxDevFrac(p.N)))
			}
		}
	}
	res.Tables = append(res.Tables, t1)

	// The deletion verdict asserts the robust ring rows: at 16×base the
	// spread deleter displaces the population at least twice as far as the
	// tight patch deleter (whose ball saturates), and neither patch arm
	// breaks the interval on the ring. Torus rows are dominated by the
	// topology's own signal collapse (A5/A7: it escapes at budget 0) and
	// are reported, not asserted.
	onRing := func(arm string) stabilityOutcome { return t1out[ring][arm][16*base] }
	deletionOK := onRing("delete-random").maxDevFrac(p.N) >= 2*onRing("delete-patch(0.02)").maxDevFrac(p.N) &&
		onRing("delete-patch(0.02)").violatedAt < 0 &&
		onRing("delete-patch(0.1)").violatedAt < 0

	// Table 2: clustered rogue cohort (64 rogues, R = 3, detect = 1) across
	// patch radius × topology. radius "uniform" is A8's oblivious seeding;
	// the others place the cohort in one ball through the Placer seam.
	radii := []float64{0.002, 0.02, 0.1, -1} // -1 = uniform
	radLabel := func(r float64) string {
		if r < 0 {
			return "uniform"
		}
		return fmt.Sprintf("%.3g", r)
	}
	t2 := Table{
		Title: fmt.Sprintf("clustered rogue cohort of 64, R=3, detect=1, ≤%d rounds: patch radius × topology", horizon),
		Cols:  []string{"topology", "radius", "rogues left", "honest size", "rogue kills", "outcome"},
	}
	contained := map[locality]map[string]bool{}
	for _, topo := range []locality{ring, torus, sw1, sw5} {
		contained[topo] = map[string]bool{}
		for _, rad := range radii {
			rs := rogues(3, 1)
			if rad >= 0 {
				rs.Cluster = a9Ball(rad)
			}
			out, err := runCohort(p, cfg.Seed, topo.on(popstab.Spec{Rogue: rs}), horizon)
			if err != nil {
				return nil, err
			}
			contained[topo][radLabel(rad)] = out.contained()
			t2.AddRow(topo.String(), radLabel(rad), fmtI(out.rogues), fmtI(out.honest),
				fmtI(out.kills), out.label())
		}
	}
	res.Tables = append(res.Tables, t2)

	// Placement verdict, robust rows: the ring takes over at EVERY radius
	// (no arc-length threshold exists — shielding absence demonstrated);
	// smallworld(0.5) contains every radius; the torus contains the
	// uniform seeding (A8) but loses the tightly clustered ones — the
	// placement flip. smallworld(0.1) straddles seeds and is reported only.
	placementOK := true
	for _, rad := range radii {
		placementOK = placementOK && !contained[ring][radLabel(rad)]
		placementOK = placementOK && contained[sw5][radLabel(rad)]
	}
	placementOK = placementOK && contained[torus]["uniform"] &&
		!contained[torus]["0.002"] && !contained[torus]["0.02"]

	// Table 3: adversarial rewiring on smallworld(0.5): the same clustered
	// cohort (radius 0.02) under no adversary, rewiring denied inside a
	// 0.1-ball around the patch, and rewiring denied everywhere. The
	// rewire adversary spends no alteration budget (K=1 merely enables the
	// turn; Act stages nothing).
	t3 := Table{
		Title: "adversarial rewiring on smallworld(0.5): clustered cohort of 64 at radius 0.02",
		Cols:  []string{"R", "rewiring", "rogues left", "honest size", "outcome"},
	}
	rewireContained := map[int]map[string]bool{}
	for _, r := range []int{1, 3} {
		rewireContained[r] = map[string]bool{}
		for _, arm := range []string{"free", "deny-patch(0.1)", "deny-all"} {
			rs := rogues(r, 1)
			rs.Cluster = a9Ball(0.02)
			sp := popstab.Spec{Rogue: rs}
			switch arm {
			case "deny-patch(0.1)":
				sp.Adversary, sp.Patch, sp.K = "rewire-deny", a9Ball(0.1), 1
			case "deny-all":
				sp.Adversary, sp.Patch, sp.K = "rewire-deny-all", a9Ball(0), 1
			}
			out, err := runCohort(p, cfg.Seed, sw5.on(sp), horizon)
			if err != nil {
				return nil, err
			}
			rewireContained[r][arm] = out.contained()
			t3.AddRow(fmtI(r), arm, fmtI(out.rogues), fmtI(out.honest), out.label())
		}
	}
	res.Tables = append(res.Tables, t3)

	// Rewiring verdict: free rewiring contains both R; denying it inside
	// the patch flips R=1 (fast interior replication only needed its own
	// links cut) but not R=3 (incoming long-range proposals still reach
	// the patch); denying it everywhere — the ring degeneration — flips
	// both.
	rewireOK := rewireContained[1]["free"] && rewireContained[3]["free"] &&
		!rewireContained[1]["deny-patch(0.1)"] && rewireContained[3]["deny-patch(0.1)"] &&
		!rewireContained[1]["deny-all"] && !rewireContained[3]["deny-all"]

	res.Verdict = verdict(deletionOK && placementOK && rewireOK,
		"placement and link control dominate the spatial map: clustering flips torus R=3 to "+
			"takeover, the ring takes over at every patch radius (no arc-length threshold), "+
			"rewiring denial re-shields small-world patches at zero budget, and concentrated "+
			"deletion saturates (≥2× weaker than spread deletion on the ring)",
		"patch-attack map differs from the calibrated expectations; see tables")
	res.Notes = append(res.Notes,
		"the ring radius sweep is the arc-length threshold question answered in the negative: "+
			"containment never holds because any surviving adjacent rogue pair is already a "+
			"shielded arc — a cohort-size sweep (not tabled) shows even a single clustered rogue "+
			"takes over on lucky seeds, so no initial-patch-size threshold exists either",
		"concentrated deletion saturates: a 0.02-radius arc holds ~2% of the ring population, so "+
			"a 128/epoch patch deleter empties it and then wastes budget re-deleting an empty ball "+
			"while the spread deleter keeps extracting full value — patch shielding protects the "+
			"honest bulk exactly as it protects rogue patches",
		"the torus flip (uniform contained, clustered takeover at the same R, cohort, and budget) "+
			"shows adversarial placement is worth more than replication rate: 64 uniform singletons "+
			"die before pairing, 64 co-located rogues are born as one shielded patch",
		"rewiring denial acts through match.RewireController — communication-model state, not an "+
			"alteration — so the K budget is untouched; the graded result (patch-local denial flips "+
			"only R=1, global denial flips R=3 too) separates the two long-range kill channels: the "+
			"patch's own proposals vs incoming honest proposals",
		"smallworld(0.1) rows straddle seeds (metastable, as in A8) and are reported, not asserted")
	return res, nil
}
