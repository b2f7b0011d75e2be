package experiment

import (
	"fmt"
	"math"

	"popstab/internal/adversary"
	"popstab/internal/match"
	"popstab/internal/protocol"
	"popstab/internal/rogue"
	"popstab/internal/sim"
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

// a7Cell is one (topology, budget) outcome of the sweep.
type a7Cell struct {
	violatedAt int // epoch of first interval violation, -1 if none
	endSize    int
	maxDev     float64
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
	lo, hi := p.Bounds()
	spacing := 1 / math.Sqrt(float64(p.N))

	// Table 1: greedy adversary at a per-epoch budget grid, well-mixed vs
	// torus. Same seed per cell: the engine's stream separation makes the
	// arms a paired comparison.
	base := p.MaxTolerableK()
	budgets := []int{0, base, 4 * base, 16 * base}
	t1 := Table{
		Title: fmt.Sprintf("greedy adversary budget sweep, N=%d, %d epochs (early exit at 4N)", n, epochs),
		Cols:  []string{"topology", "budget", "first violation (epoch)", "end size", "maxDev"},
	}
	runCell := func(torus bool, perEpoch int) (a7Cell, error) {
		pr, err := protocol.New(p)
		if err != nil {
			return a7Cell{}, err
		}
		simCfg := sim.Config{Params: p, Protocol: pr, Seed: cfg.Seed, Workers: 1}
		if perEpoch > 0 {
			simCfg.K = 1
			simCfg.Adversary = adversary.NewPaced(adversary.PerEpoch(p.T, perEpoch, 1),
				adversary.NewGreedy())
		}
		if torus {
			tor, err := match.NewTorus(spacing)
			if err != nil {
				return a7Cell{}, err
			}
			simCfg.Matcher = tor
		}
		eng, err := sim.New(simCfg)
		if err != nil {
			return a7Cell{}, err
		}
		out := a7Cell{violatedAt: -1}
		for ep := 0; ep < epochs && eng.Size() < 4*p.N; ep++ {
			rep := eng.RunEpoch()
			if out.violatedAt < 0 && (rep.MinSize < lo || rep.MaxSize > hi) {
				out.violatedAt = ep
			}
			for _, v := range []int{rep.MinSize, rep.MaxSize} {
				if d := absF(float64(v-p.N)) / float64(p.N); d > out.maxDev {
					out.maxDev = d
				}
			}
		}
		out.endSize = eng.Size()
		return out, nil
	}
	cells := map[bool]map[int]a7Cell{false: {}, true: {}}
	for _, torus := range []bool{false, true} {
		name := "mixed"
		if torus {
			name = "torus"
		}
		for _, b := range budgets {
			c, err := runCell(torus, b)
			if err != nil {
				return nil, err
			}
			cells[torus][b] = c
			firstViol := "none"
			if c.violatedAt >= 0 {
				firstViol = fmtI(c.violatedAt)
			}
			t1.AddRow(name, budgetLabel(b), firstViol, fmtI(c.endSize), fmtF(c.maxDev))
		}
	}
	res.Tables = append(res.Tables, t1)
	// The verdict asserts exactly what the claim says: the well-mixed arms
	// hold at and below the tolerated budget, while every torus arm —
	// including budget 0 — escapes, and budget only accelerates the escape.
	sweepOK := cells[false][0].violatedAt < 0 && cells[false][base].violatedAt < 0
	for _, b := range budgets {
		sweepOK = sweepOK && cells[true][b].violatedAt >= 0
	}
	sweepOK = sweepOK && cells[true][16*base].violatedAt <= cells[true][0].violatedAt

	// Table 2: malicious programs on the torus (rogue×geo). Scattered
	// rogues on the torus face a contact (and therefore cull) rate of ≈ 1
	// per round, so even replication periods far below the well-mixed
	// threshold are contained.
	horizon := 2 * p.T
	t2 := Table{
		Title: fmt.Sprintf("rogue cohort of 64 vs replication period R, mixed vs torus (detect=1, ≤%d rounds; well-mixed R* ≈ 2.41)", horizon),
		Cols:  []string{"R", "topology", "rogues left", "honest size", "rogue kills", "outcome"},
	}
	rogueOutcome := map[bool]map[int]bool{false: {}, true: {}} // contained?
	for _, r := range []int{1, 2, 3, 6} {
		for _, torus := range []bool{false, true} {
			sc := sim.Config{Params: p, Seed: cfg.Seed, Workers: 1}
			name := "mixed"
			if torus {
				name = "torus"
				tor, err := match.NewTorus(spacing)
				if err != nil {
					return nil, err
				}
				sc.Matcher = tor
			}
			eng, err := rogue.New(sc, rogue.Config{ReplicateEvery: r, DetectProb: 1, InitialRogues: 64})
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
			rogueOutcome[torus][r] = outcome == "contained"
			t2.AddRow(fmtI(r), name, fmtI(rogues), fmtI(honest),
				fmtI(int(eng.Stats().RogueKills)), outcome)
		}
	}
	res.Tables = append(res.Tables, t2)
	// Verdict rests on the robust rows: R=2 separates the topologies (torus
	// contained, well-mixed takeover since 2 < R*), and both contain R ≥ 3.
	// The torus R=1 row is metastable — see the patch-shielding note — so it
	// is reported but not asserted.
	rogueOK := !rogueOutcome[false][1] && !rogueOutcome[false][2] &&
		rogueOutcome[false][3] && rogueOutcome[false][6] &&
		rogueOutcome[true][2] && rogueOutcome[true][3] && rogueOutcome[true][6]

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
