// Quickstart: run the population stability protocol at N = 4096 with no
// adversary and watch the population hold its target across epochs.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"popstab"
)

func main() {
	sim, err := popstab.New(popstab.Spec{
		N:      4096,
		Tinner: 24, // shorter subphases (still ω(log N)) keep the demo fast
		Seed:   42,
	})
	if err != nil {
		log.Fatal(err)
	}

	p := sim.Params()
	fmt.Printf("population stability: N=%d, epoch=%d rounds, clusters of √N=%d agents\n",
		p.N, p.T, p.ClusterSize)
	lo, hi := p.Bounds()
	fmt.Printf("admissible interval: [%d, %d]\n\n", lo, hi)

	for i := 0; i < 15; i++ {
		rep := sim.RunEpoch()
		bar := populationBar(rep.EndSize, p.N)
		fmt.Printf("epoch %2d: size %5d  %s\n", rep.Epoch, rep.EndSize, bar)
	}

	c := sim.Counters()
	fmt.Printf("\nover the run: %d leaders elected, %d agents recruited, %d splits, %d deaths\n",
		c.Leaders, c.Recruits, c.EvalSplits, c.EvalDeaths)
	if sim.InInterval() {
		fmt.Println("the population stayed within the admissible interval ✓")
	}
}

// populationBar draws a crude gauge centered on the target.
func populationBar(size, n int) string {
	const width = 40
	pos := width/2 + (size-n)*width/(2*n)
	if pos < 0 {
		pos = 0
	}
	if pos >= width {
		pos = width - 1
	}
	bar := make([]byte, width)
	for i := range bar {
		bar[i] = '-'
	}
	bar[width/2] = '|'
	bar[pos] = '#'
	return string(bar)
}
