// Attack gallery: every adversary strategy in the library against the
// paper's protocol at the tolerated budget, followed by the two §1.3.1
// attacks that destroy the Attempt 1 baseline — reproducing the paper's
// central comparison: the variance-encoded protocol has no special agents to
// assassinate, so the attacks that kill leader election bounce off.
//
//	go run ./examples/attackgallery
package main

import (
	"fmt"
	"log"

	"popstab"
)

const (
	n      = 4096
	tinner = 24
	epochs = 20
)

func main() {
	if err := gallery(); err != nil {
		log.Fatal(err)
	}
}

func gallery() error {
	params, err := popstab.Spec{N: n, Tinner: tinner}.Params()
	if err != nil {
		return err
	}
	budget := params.MaxTolerableK()

	fmt.Printf("=== main protocol vs the strategy library (budget %d alterations/epoch) ===\n\n", budget)
	fmt.Printf("%-18s %10s %10s %9s\n", "strategy", "end size", "worst dev", "interval")
	for _, name := range popstab.AdversaryNames() {
		sp := popstab.Spec{N: n, Tinner: tinner, Seed: 1}
		if name != "none" {
			sp.Adversary, sp.K, sp.PerEpochBudget = name, 1, budget
		}
		sim, err := popstab.New(sp)
		if err != nil {
			return err
		}
		worst := 0
		for i := 0; i < epochs; i++ {
			rep := sim.RunEpoch()
			for _, v := range []int{rep.MinSize, rep.MaxSize} {
				if d := abs(v - n); d > worst {
					worst = d
				}
			}
		}
		status := "held ✓"
		if !sim.InInterval() {
			status = "BROKEN"
		}
		fmt.Printf("%-18s %10d %10d %9s\n", name, sim.Size(), worst, status)
	}

	fmt.Printf("\n=== Attempt 1 (leader election baseline) vs its two killer attacks ===\n\n")
	if err := attempt1Arm("no adversary", popstab.Spec{
		N: n, Tinner: tinner, Seed: 2, Protocol: "attempt1",
	}); err != nil {
		return err
	}
	// The facade pacing machinery works for any protocol; the dedicated
	// Attempt 1 attacks live in the experiment suite (E9). Here we show the
	// generic equivalents: inserting "heard a leader" state equals the
	// suppressor, deleting active agents equals the igniter.
	if err := attempt1Arm("insert heard-bit (suppressor analogue)", popstab.Spec{
		N: n, Tinner: tinner, Seed: 2, Protocol: "attempt1",
		Adversary: "insert-leader1", K: 1, PerEpochBudget: 8,
	}); err != nil {
		return err
	}
	if err := attempt1Arm("delete carriers (igniter analogue)", popstab.Spec{
		N: n, Tinner: tinner, Seed: 2, Protocol: "attempt1",
		Adversary: "delete-active", K: budget, PerEpochBudget: budget * 64,
	}); err != nil {
		return err
	}

	fmt.Println("\nthe full E9/E11 experiments (cmd/popbench -run E9,E11) quantify these runs.")
	return nil
}

func attempt1Arm(label string, sp popstab.Spec) error {
	sim, err := popstab.New(sp)
	if err != nil {
		return err
	}
	start := sim.Size()
	for i := 0; i < epochs; i++ {
		sim.RunEpochs(1)
		if sim.Size() < n/2 || sim.Size() > 2*n {
			break
		}
	}
	fmt.Printf("%-40s %6d -> %6d", label, start, sim.Size())
	switch {
	case sim.Size() < n/2:
		fmt.Println("  COLLAPSED")
	case sim.Size() > 2*n:
		fmt.Println("  EXPLODED")
	default:
		fmt.Println("  stable")
	}
	return nil
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
