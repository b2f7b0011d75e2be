// Wound healing: the biological scenario from the paper's introduction — an
// organ (population of cells) suffers acute trauma losing a third of its
// cells, then regrows toward its target size through purely local decisions.
//
// The run uses γ = 1 (every cell interacts every round) so the regrowth is
// visible in a short demo; the restoring drift scales linearly in γ.
//
//	go run ./examples/woundhealing
package main

import (
	"fmt"
	"log"

	"popstab"
)

func main() {
	sim, err := popstab.New(popstab.Spec{
		N:      4096,
		Tinner: 24,
		Gamma:  1.0,
		Seed:   7,
	})
	if err != nil {
		log.Fatal(err)
	}
	p := sim.Params()
	mStar := p.PredictedEquilibrium()

	fmt.Printf("tissue target: %d cells (homeostatic fixed point ≈ %d)\n\n", p.N, mStar)

	// Healthy phase.
	fmt.Println("healthy phase:")
	for i := 0; i < 5; i++ {
		rep := sim.RunEpoch()
		fmt.Printf("  epoch %3d: %5d cells\n", rep.Epoch, rep.EndSize)
	}

	// Acute trauma: lose half of all cells at once.
	wounded := sim.Size() / 2
	sim.Displace(wounded)
	fmt.Printf("\n*** trauma: tissue cut to %d cells ***\n\n", wounded)

	// Healing: run until the population regains 90% of the fixed point.
	fmt.Println("healing (sampled every 25 epochs):")
	target := mStar * 9 / 10
	healed := -1
	for ep := 0; ep < 1200; ep++ {
		rep := sim.RunEpoch()
		if ep%25 == 0 {
			fmt.Printf("  epoch %4d: %5d cells (%.0f%% of fixed point)\n",
				rep.Epoch, rep.EndSize, 100*float64(rep.EndSize)/float64(mStar))
		}
		if rep.EndSize >= target {
			healed = rep.Epoch
			fmt.Printf("  epoch %4d: %5d cells — healed to 90%% ✓\n", rep.Epoch, rep.EndSize)
			break
		}
	}
	if healed < 0 {
		fmt.Println("  healing incomplete within the demo horizon")
	}

	fmt.Printf("\nmechanism: each cell samples two random neighbors' colors per epoch;\n")
	fmt.Printf("fewer cells ⇒ fewer color clusters ⇒ more same-color meetings ⇒ more splits.\n")
	fmt.Printf("No cell ever counts the population — the size is read out of the variance\n")
	fmt.Printf("of the color distribution (Θ(log log N) bits of memory per cell).\n")
}
