// Command popsim runs a single population stability simulation and prints a
// per-epoch summary (optionally a CSV trace for plotting).
//
// Examples:
//
//	popsim -n 4096 -epochs 20
//	popsim -n 16384 -adv greedy -budget 16 -epochs 40
//	popsim -n 4096 -protocol attempt2 -epochs 10 -csv trace.csv
//	popsim -n 4096 -topology torus -adv greedy -budget 16 -epochs 10
//	popsim -n 4096 -topology smallworld -rewire 0.3 -epochs 10
//	popsim -n 4096 -rogues 64 -rogue-every 12 -epochs 5
//	popsim -n 4096 -topology ring -rogues 64 -rogue-every 12 -epochs 5
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"popstab"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "popsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("popsim", flag.ContinueOnError)
	var (
		n        = fs.Int("n", 4096, "population target N (power of four, >= 4096)")
		tinner   = fs.Int("tinner", 0, "recruitment subphase length (0 = paper default log^2 N)")
		gamma    = fs.Float64("gamma", 0, "matched fraction per round (0 = 0.25)")
		alpha    = fs.Float64("alpha", 0, "interval half-width (0 = 0.5)")
		epochs   = fs.Int("epochs", 20, "number of epochs to run")
		seed     = fs.Uint64("seed", 1, "PRNG seed")
		proto    = fs.String("protocol", "paper", "protocol: paper|attempt1|attempt2|empty")
		advName  = fs.String("adv", "none", "adversary strategy (see -list-adv)")
		budget   = fs.Int("budget", 0, "adversary alterations per epoch (0 = N^(1/4))")
		k        = fs.Int("k", 1, "adversary per-round cap K")
		bits     = fs.Int("bits", 3, "message codec width: 3 or 4")
		topo     = fs.String("topology", "mixed", "communication topology: mixed|torus|grid|ring|smallworld")
		spread   = fs.Float64("spread", 0, "daughter spread as a fraction of the mean inter-agent spacing (0 = 1.0; spatial topologies)")
		rewire   = fs.Float64("rewire", 0, "Watts-Strogatz rewiring probability (0 = 0.1; smallworld only)")
		rogues   = fs.Int("rogues", 0, "initial rogue agents (enables the malicious-program extension)")
		rogueEv  = fs.Int("rogue-every", 12, "rogue replication period R (rounds)")
		rogueDet = fs.Float64("rogue-detect", 1, "honest per-contact detection probability")
		roguePE  = fs.Int("rogues-per-epoch", 0, "rogues infiltrated at every epoch boundary")
		csvPath  = fs.String("csv", "", "write a per-epoch CSV trace to this file")
		listAdv  = fs.Bool("list-adv", false, "list adversary strategies and exit")
		quietRun = fs.Bool("q", false, "suppress the per-epoch table")
		stats    = fs.Bool("stats", false, "print the engine's per-phase round cost breakdown after the run")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *listAdv {
		for _, name := range append(popstab.AdversaryNames(), popstab.SpatialAdversaryNames()...) {
			fmt.Println(name)
		}
		return nil
	}

	sp := popstab.Spec{
		N:              *n,
		Tinner:         *tinner,
		Gamma:          *gamma,
		Alpha:          *alpha,
		Protocol:       *proto,
		MessageBits:    *bits,
		Topology:       *topo,
		DaughterSpread: *spread,
		RewireProb:     *rewire,
		Seed:           *seed,
	}
	if *rogues != 0 || *roguePE != 0 {
		sp.Rogue = &popstab.RogueSpec{
			ReplicateEvery: *rogueEv,
			DetectProb:     *rogueDet,
			InitialRogues:  *rogues,
			RoguesPerEpoch: *roguePE,
		}
	}
	params, err := sp.Params()
	if err != nil {
		return err
	}
	if *advName != "none" {
		sp.Adversary = *advName
		sp.K = *k
		sp.PerEpochBudget = *budget
		if sp.PerEpochBudget == 0 {
			sp.PerEpochBudget = params.MaxTolerableK()
		}
	}
	norm, err := sp.Normalize()
	if err != nil {
		return err
	}
	s, err := popstab.New(sp)
	if err != nil {
		return err
	}

	fmt.Printf("# %s protocol=%s topology=%s adversary=%s budget=%s seed=%d\n",
		params, norm.Protocol, norm.Topology, *advName, budgetString(sp.PerEpochBudget), *seed)
	if sp.Rogue != nil {
		fmt.Printf("# rogue extension: initial=%d per-epoch=%d R=%d detect=%.2f\n",
			sp.Rogue.InitialRogues, sp.Rogue.RoguesPerEpoch,
			sp.Rogue.ReplicateEvery, sp.Rogue.DetectProb)
	}

	reps := make([]popstab.EpochReport, 0, *epochs)
	if !*quietRun {
		fmt.Printf("%6s  %7s  %7s  %7s  %7s  %6s  %6s  %6s  %6s\n",
			"epoch", "start", "end", "min", "max", "births", "deaths", "advIns", "advDel")
	}
	for i := 0; i < *epochs; i++ {
		rep := s.RunEpoch()
		reps = append(reps, rep)
		if !*quietRun {
			fmt.Printf("%6d  %7d  %7d  %7d  %7d  %6d  %6d  %6d  %6d\n",
				rep.Epoch, rep.StartSize, rep.EndSize, rep.MinSize, rep.MaxSize,
				rep.Births, rep.Deaths, rep.AdvInserted, rep.AdvDeleted)
		}
	}

	in := "INSIDE"
	if !s.InInterval() {
		in = "OUTSIDE"
	}
	lo, hi := params.Bounds()
	fmt.Printf("# final population %d — %s [(1−α)N, (1+α)N] = [%d, %d]\n", s.Size(), in, lo, hi)
	if c := s.Counters(); c != nil {
		fmt.Printf("# protocol counters: %s\n", c)
	}
	if sp.Rogue != nil {
		honest, rg := s.RogueCounts()
		st := s.RogueStats()
		fmt.Printf("# rogue extension: honest=%d rogues=%d kills=%d rogueSplits=%d missedDetections=%d\n",
			honest, rg, st.RogueKills, st.RogueSplits, st.FailedDetections)
	}
	if *stats {
		fmt.Println("# " + strings.ReplaceAll(s.RoundStats().Breakdown(), "\n", "\n# "))
	}

	if *csvPath != "" {
		if err := writeCSV(*csvPath, reps); err != nil {
			return err
		}
		fmt.Printf("# wrote %s\n", *csvPath)
	}
	return nil
}

// writeCSV writes the per-epoch trace in long format, one series,x,y row
// per point: every epoch's end population, then its births, then its
// deaths, keyed by epoch index. Values print as shortest floats, so a
// population of a million or more appears as 1.048576e+06.
func writeCSV(path string, reps []popstab.EpochReport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	w.Write([]string{"series", "x", "y"})
	for _, series := range []struct {
		name string
		y    func(popstab.EpochReport) int
	}{
		{"population", func(r popstab.EpochReport) int { return r.EndSize }},
		{"births", func(r popstab.EpochReport) int { return r.Births }},
		{"deaths", func(r popstab.EpochReport) int { return r.Deaths }},
	} {
		for _, r := range reps {
			w.Write([]string{series.name, formatValue(r.Epoch), formatValue(series.y(r))})
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// formatValue renders v as the shortest float representation.
func formatValue(v int) string { return strconv.FormatFloat(float64(v), 'g', -1, 64) }

func budgetString(b int) string {
	if b == 0 {
		return "none"
	}
	return fmt.Sprintf("%d/epoch", b)
}
