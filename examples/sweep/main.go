// Sweep: grid the matched fraction γ and the adversary budget, emitting a
// CSV of worst-case displacement — the raw material for tolerance heatmaps.
//
//	go run ./examples/sweep > sweep.csv
package main

import (
	"encoding/csv"
	"fmt"
	"log"
	"os"
	"strconv"

	"popstab"
)

const (
	n      = 4096
	tinner = 24
	epochs = 12
	seed   = 3
)

func main() {
	if err := sweep(); err != nil {
		log.Fatal(err)
	}
}

func sweep() error {
	gammas := []float64{0.1, 0.25, 0.5, 1.0}
	budgetsX := []int{0, 1, 4, 16} // multiples of N^(1/4)

	w := csv.NewWriter(os.Stdout)
	defer w.Flush()
	if err := w.Write([]string{"gamma", "budget_per_epoch", "worst_dev_frac", "end_size", "violated"}); err != nil {
		return err
	}

	for _, gamma := range gammas {
		for _, bx := range budgetsX {
			sp := popstab.Spec{N: n, Tinner: tinner, Gamma: gamma, Seed: seed}
			params, err := sp.Params()
			if err != nil {
				return err
			}
			budget := bx * params.MaxTolerableK()
			if budget > 0 {
				sp.Adversary, sp.K, sp.PerEpochBudget = "greedy", 1, budget
			}
			sim, err := popstab.New(sp)
			if err != nil {
				return err
			}
			worst := 0.0
			violated := false
			lo, hi := params.Bounds()
			for i := 0; i < epochs; i++ {
				rep := sim.RunEpoch()
				for _, v := range []int{rep.MinSize, rep.MaxSize} {
					d := float64(v-n) / float64(n)
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
			if err := w.Write([]string{
				fmt.Sprintf("%.2f", gamma),
				strconv.Itoa(budget),
				fmt.Sprintf("%.5f", worst),
				strconv.Itoa(sim.Size()),
				strconv.FormatBool(violated),
			}); err != nil {
				return err
			}
		}
	}
	return nil
}
