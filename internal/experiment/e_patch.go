package experiment

import (
	"fmt"
	"math"

	"popstab/internal/adversary"
	"popstab/internal/match"
	"popstab/internal/population"
	"popstab/internal/protocol"
	"popstab/internal/rogue"
	"popstab/internal/sim"
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

// a9Center is the patch center used throughout (any point works: the
// topologies are homogeneous, modulo the grid boundary, which A9 avoids).
var a9Center = population.Point{X: 0.5, Y: 0.5}

// a9Matcher builds the topology for one cell.
func a9Matcher(name string, n int) (match.Matcher, error) {
	s2 := 1 / math.Sqrt(float64(n))
	s1 := 1 / float64(n)
	switch name {
	case "ring":
		return match.NewRing(s1)
	case "torus":
		return match.NewTorus(s2)
	case "smallworld(0.1)":
		return match.NewSmallWorld(s1, 0.1)
	case "smallworld(0.5)":
		return match.NewSmallWorld(s1, 0.5)
	}
	return nil, fmt.Errorf("a9: unknown topology %q", name)
}

func runA9(cfg Config) (*Result, error) {
	n := 4096
	p, err := paramsFor(n, cfg.Scale)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	lo, hi := p.Bounds()
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
	type t1arm struct {
		name string
		mk   func() adversary.Adversary
	}
	arms := []t1arm{
		{"delete-random", func() adversary.Adversary { return adversary.NewRandomDeleter() }},
		{"delete-patch(0.02)", func() adversary.Adversary { return adversary.NewPatchDeleter(a9Center, 0.02) }},
		{"delete-patch(0.1)", func() adversary.Adversary { return adversary.NewPatchDeleter(a9Center, 0.1) }},
		{"patch-combo(0.05)", func() adversary.Adversary {
			return adversary.NewPatchCombo(a9Center, 0.05, nil)
		}},
	}
	t1 := Table{
		Title: fmt.Sprintf("concentrated vs spread alteration, N=%d, %d epochs, budgets/epoch {%d, %d}", n, epochs, base, 16*base),
		Cols:  []string{"topology", "strategy", "budget", "first violation (epoch)", "maxDev"},
	}
	t1dev := map[string]map[string]map[int]float64{} // topo -> arm -> budget -> maxDev
	t1viol := map[string]map[string]map[int]int{}
	for _, topo := range []string{"ring", "torus"} {
		t1dev[topo] = map[string]map[int]float64{}
		t1viol[topo] = map[string]map[int]int{}
		for _, arm := range arms {
			t1dev[topo][arm.name] = map[int]float64{}
			t1viol[topo][arm.name] = map[int]int{}
			for _, b := range []int{base, 16 * base} {
				m, err := a9Matcher(topo, p.N)
				if err != nil {
					return nil, err
				}
				pr, err := protocol.New(p)
				if err != nil {
					return nil, err
				}
				eng, err := sim.New(sim.Config{
					Params: p, Protocol: pr, Seed: cfg.Seed, Workers: 1, Matcher: m, K: 1,
					Adversary: adversary.NewPaced(adversary.PerEpoch(p.T, b, 1), arm.mk()),
				})
				if err != nil {
					return nil, err
				}
				firstViol := -1
				maxDev := 0.0
				for ep := 0; ep < epochs && eng.Size() < 4*p.N; ep++ {
					rep := eng.RunEpoch()
					if firstViol < 0 && (rep.MinSize < lo || rep.MaxSize > hi) {
						firstViol = ep
					}
					for _, v := range []int{rep.MinSize, rep.MaxSize} {
						if d := absF(float64(v-p.N)) / float64(p.N); d > maxDev {
							maxDev = d
						}
					}
				}
				t1dev[topo][arm.name][b] = maxDev
				t1viol[topo][arm.name][b] = firstViol
				cell := "none"
				if firstViol >= 0 {
					cell = fmtI(firstViol)
				}
				t1.AddRow(topo, arm.name, budgetLabel(b), cell, fmtF(maxDev))
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
	bigB := 16 * base
	deletionOK := t1dev["ring"]["delete-random"][bigB] >= 2*t1dev["ring"]["delete-patch(0.02)"][bigB] &&
		t1viol["ring"]["delete-patch(0.02)"][bigB] < 0 &&
		t1viol["ring"]["delete-patch(0.1)"][bigB] < 0

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
	contained := map[string]map[string]bool{}
	for _, topo := range []string{"ring", "torus", "smallworld(0.1)", "smallworld(0.5)"} {
		contained[topo] = map[string]bool{}
		for _, rad := range radii {
			m, err := a9Matcher(topo, p.N)
			if err != nil {
				return nil, err
			}
			rc := rogue.Config{ReplicateEvery: 3, DetectProb: 1, InitialRogues: 64}
			if rad >= 0 {
				rc.Cluster = &rogue.ClusterSpec{Center: a9Center, Radius: rad}
			}
			eng, err := rogue.New(sim.Config{Params: p, Seed: cfg.Seed, Workers: 1, Matcher: m}, rc)
			if err != nil {
				return nil, err
			}
			for i := 0; i < horizon && eng.Size() < 4*p.N; i++ {
				eng.RunRound()
			}
			honest, rogues := eng.Counts()
			outcome := "contained"
			if rogues >= 64 {
				outcome = "takeover"
			}
			contained[topo][radLabel(rad)] = outcome == "contained"
			t2.AddRow(topo, radLabel(rad), fmtI(rogues), fmtI(honest),
				fmtI(int(eng.Stats().RogueKills)), outcome)
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
		placementOK = placementOK && !contained["ring"][radLabel(rad)]
		placementOK = placementOK && contained["smallworld(0.5)"][radLabel(rad)]
	}
	placementOK = placementOK && contained["torus"]["uniform"] &&
		!contained["torus"]["0.002"] && !contained["torus"]["0.02"]

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
			m, err := a9Matcher("smallworld(0.5)", p.N)
			if err != nil {
				return nil, err
			}
			sc := sim.Config{Params: p, Seed: cfg.Seed, Workers: 1, Matcher: m}
			switch arm {
			case "deny-patch(0.1)":
				sc.Adversary, sc.K = adversary.NewRewireDenier(a9Center, 0.1), 1
			case "deny-all":
				sc.Adversary, sc.K = adversary.NewRewireDenier(a9Center, -1), 1
			}
			eng, err := rogue.New(sc, rogue.Config{
				ReplicateEvery: r, DetectProb: 1, InitialRogues: 64,
				Cluster: &rogue.ClusterSpec{Center: a9Center, Radius: 0.02},
			})
			if err != nil {
				return nil, err
			}
			for i := 0; i < horizon && eng.Size() < 4*p.N; i++ {
				eng.RunRound()
			}
			honest, rogues := eng.Counts()
			outcome := "contained"
			if rogues >= 64 {
				outcome = "takeover"
			}
			rewireContained[r][arm] = outcome == "contained"
			t3.AddRow(fmtI(r), arm, fmtI(rogues), fmtI(honest), outcome)
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
