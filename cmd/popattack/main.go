// Command popattack explores the adversary strategy space: it runs every
// strategy across a grid of per-epoch budgets and prints the worst
// population displacement each achieves — a quick map of where the
// protocol's tolerance ends. With a spatial -topology (torus, grid, ring,
// smallworld) the same grid runs under geometric (nearest-available)
// communication — the A7/A8 scenarios — and the grid additionally includes
// the position-aware patch strategy family (delete-patch, cluster-leader*,
// rewire-deny*, patch-combo), parameterized by the -patch-* ball.
//
// Examples:
//
//	popattack -n 4096 -epochs 20 -budgets 0,8,32,128,512
//	popattack -n 4096 -topology torus -epochs 10
//	popattack -n 4096 -topology ring -patch-r 0.1 -epochs 10
//	popattack -n 4096 -topology smallworld -epochs 10
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"popstab"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "popattack:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("popattack", flag.ContinueOnError)
	var (
		n          = fs.Int("n", 4096, "population target N")
		tinner     = fs.Int("tinner", 24, "recruitment subphase length (0 = paper default)")
		epochs     = fs.Int("epochs", 20, "epochs per cell")
		seed       = fs.Uint64("seed", 1, "PRNG seed")
		topo       = fs.String("topology", "mixed", "communication topology: mixed|torus|grid|ring|smallworld")
		budgetList = fs.String("budgets", "", "comma-separated per-epoch budgets (empty = 0,1x,4x,16x of N^(1/4))")
		patchX     = fs.Float64("patch-x", 0.5, "patch ball center X (spatial strategies)")
		patchY     = fs.Float64("patch-y", 0.5, "patch ball center Y (2-D topologies)")
		patchR     = fs.Float64("patch-r", 0.05, "patch ball radius (arc half-length on 1-D topologies)")
		stats      = fs.Bool("stats", false, "print the per-phase round cost breakdown summed over the whole grid")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	base := popstab.Spec{N: *n, Tinner: *tinner, Seed: *seed, Topology: *topo,
		Patch: &popstab.BallSpec{X: *patchX, Y: *patchY, R: *patchR}}
	norm, err := base.Normalize()
	if err != nil {
		return err
	}
	params, err := base.Params()
	if err != nil {
		return err
	}
	k := params.MaxTolerableK()

	var budgets []int
	if *budgetList == "" {
		budgets = []int{0, k, 4 * k, 16 * k}
	} else {
		for _, tok := range strings.Split(*budgetList, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil {
				return fmt.Errorf("bad budget %q: %w", tok, err)
			}
			budgets = append(budgets, v)
		}
	}

	fmt.Printf("# %s  topology=%s  (N^(1/4) = %d)\n", params, norm.Topology, k)
	fmt.Printf("# cells: worst |m−N|/N over %d epochs; '!' marks an interval violation\n\n", *epochs)
	fmt.Printf("%-18s", "strategy\\budget")
	for _, b := range budgets {
		fmt.Printf("  %10d", b)
	}
	fmt.Println()

	names := popstab.AdversaryNames()
	// The patch family needs positions to act as designed, so it joins the
	// grid only on spatial topologies.
	if norm.Topology != "mixed" {
		names = append(names, popstab.SpatialAdversaryNames()...)
	}
	var grid popstab.RoundStats
	for _, name := range names {
		if name == "none" {
			continue
		}
		fmt.Printf("%-18s", name)
		for _, b := range budgets {
			dev, violated, cellStats, err := runCell(base, *epochs, name, b)
			if err != nil {
				return err
			}
			grid = grid.Add(cellStats)
			mark := " "
			if violated {
				mark = "!"
			}
			fmt.Printf("  %9.4f%s", dev, mark)
		}
		fmt.Println()
	}
	if *stats {
		fmt.Println("\n# " + strings.ReplaceAll(grid.Breakdown(), "\n", "\n# "))
	}
	return nil
}

// runCell measures the worst relative displacement for one strategy/budget
// on base (budget 0 runs without an adversary), returning the cell's engine
// phase counters for the grid-wide -stats sum.
func runCell(base popstab.Spec, epochs int, name string, budget int) (float64, bool, popstab.RoundStats, error) {
	sp := base
	if budget > 0 {
		sp.Adversary, sp.K, sp.PerEpochBudget = name, 1, budget
	}
	s, err := popstab.New(sp)
	if err != nil {
		return 0, false, popstab.RoundStats{}, err
	}
	defer s.Close()
	params := s.Params()
	lo, hi := params.Bounds()
	worst := 0.0
	violated := false
	for i := 0; i < epochs; i++ {
		rep := s.RunEpoch()
		for _, v := range []int{rep.MinSize, rep.MaxSize} {
			d := float64(v-params.N) / float64(params.N)
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst = d
			}
		}
		if rep.MinSize < lo || rep.MaxSize > hi {
			violated = true
		}
	}
	return worst, violated, s.RoundStats(), nil
}
