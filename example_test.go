package popstab_test

import (
	"fmt"
	"log"

	"popstab"
)

// Run the population stability protocol at N = 4096 with no adversary and
// watch the population hold its target across epochs.
func Example() {
	sim, err := popstab.New(popstab.Spec{
		N:      4096,
		Tinner: 24, // shorter subphases (still ω(log N)) keep the run fast
		Seed:   42,
	})
	if err != nil {
		log.Fatal(err)
	}

	p := sim.Params()
	fmt.Printf("N=%d, epoch=%d rounds, clusters of √N=%d agents\n", p.N, p.T, p.ClusterSize)
	lo, hi := p.Bounds()
	fmt.Printf("admissible interval: [%d, %d]\n", lo, hi)

	for i := 0; i < 15; i++ {
		rep := sim.RunEpoch()
		fmt.Printf("epoch %2d: size %5d  %s\n", rep.Epoch, rep.EndSize, populationBar(rep.EndSize, p.N))
	}

	c := sim.Counters()
	fmt.Printf("%d leaders elected, %d agents recruited, %d splits, %d deaths\n",
		c.Leaders, c.Recruits, c.EvalSplits, c.EvalDeaths)
	fmt.Println("stayed in the admissible interval:", sim.InInterval())
	// Output:
	// N=4096, epoch=144 rounds, clusters of √N=64 agents
	// admissible interval: [2048, 6144]
	// epoch  0: size  4090  --------------------#-------------------
	// epoch  1: size  4078  --------------------#-------------------
	// epoch  2: size  4083  --------------------#-------------------
	// epoch  3: size  4104  --------------------#-------------------
	// epoch  4: size  4104  --------------------#-------------------
	// epoch  5: size  4103  --------------------#-------------------
	// epoch  6: size  4104  --------------------#-------------------
	// epoch  7: size  4109  --------------------#-------------------
	// epoch  8: size  4109  --------------------#-------------------
	// epoch  9: size  4112  --------------------#-------------------
	// epoch 10: size  4104  --------------------#-------------------
	// epoch 11: size  4097  --------------------#-------------------
	// epoch 12: size  4099  --------------------#-------------------
	// epoch 13: size  4090  --------------------#-------------------
	// epoch 14: size  4091  --------------------#-------------------
	// 134 leaders elected, 8415 agents recruited, 141 splits, 146 deaths
	// stayed in the admissible interval: true
}

// populationBar draws a crude gauge centered on the target.
func populationBar(size, n int) string {
	const width = 40
	pos := min(max(width/2+(size-n)*width/(2*n), 0), width-1)
	bar := make([]byte, width)
	for i := range bar {
		bar[i] = '-'
	}
	bar[width/2] = '|'
	bar[pos] = '#'
	return string(bar)
}

// Wound healing, the biological scenario of the paper's introduction: a
// trauma destroys three quarters of a tissue's cells, and the survivors
// regrow toward the homeostatic size m* = N − 16√N through purely local
// decisions. No cell counts the population: fewer cells make fewer color
// clusters, hence more same-color meetings and more splits. Every cell
// interacts every round (γ = 1), which keeps the regrowth visible within a
// short run; the restoring drift scales linearly in γ.
func Example_woundHealing() {
	sim, err := popstab.New(popstab.Spec{N: 4096, Tinner: 24, Gamma: 1, Seed: 7, Workers: 1})
	if err != nil {
		log.Fatal(err)
	}
	mStar := sim.Params().PredictedEquilibrium()
	sim.Displace(mStar / 4)
	fmt.Printf("m* = %d cells; trauma leaves %d\n", mStar, sim.Size())
	for i := 0; i < 8; i++ {
		reps := sim.RunEpochs(25)
		end := reps[len(reps)-1]
		fmt.Printf("epoch %3d: %4d cells (%2d%% of m*)\n", end.Epoch, end.EndSize, 100*end.EndSize/mStar)
	}
	// Output:
	// m* = 3072 cells; trauma leaves 768
	// epoch  24:  752 cells (24% of m*)
	// epoch  49:  871 cells (28% of m*)
	// epoch  74:  953 cells (31% of m*)
	// epoch  99:  989 cells (32% of m*)
	// epoch 124: 1063 cells (34% of m*)
	// epoch 149: 1070 cells (34% of m*)
	// epoch 174: 1239 cells (40% of m*)
	// epoch 199: 1322 cells (43% of m*)
}
