package experiment

import (
	"fmt"

	"popstab/internal/adversary"
	"popstab/internal/match"
	"popstab/internal/params"
	"popstab/internal/protocol"
	"popstab/internal/sim"
)

// paramsFor derives experiment parameters at the given scale. Experiments
// shorten the subphase to Tinner = 4·log N (Full) or 2·log N (Quick) —
// both within the paper's Tinner = ω(log N) family (footnotes 5–6) — so
// that epochs stay affordable at laptop N.
func paramsFor(n int, scale Scale, opts ...params.Option) (params.Params, error) {
	tinner := 2 * logOf(n)
	if scale == Full {
		tinner = 4 * logOf(n)
	}
	all := append([]params.Option{params.WithTinner(tinner)}, opts...)
	return params.Derive(n, all...)
}

// logOf is log₂ n for a power of two.
func logOf(n int) int {
	lg := 0
	for v := n; v > 1; v >>= 1 {
		lg++
	}
	return lg
}

// stabilityArm is one (adversary, budget) configuration of a stability run.
type stabilityArm struct {
	name      string
	adversary adversary.Adversary
	perEpoch  int // alterations per epoch (0 = none)
}

// stabilityOutcome summarizes one stability trajectory.
type stabilityOutcome struct {
	minSize, maxSize int
	endSize          int
	violatedAt       int // epoch index of first interval violation, -1 if none
}

// maxDevFrac reports the worst |m − N|/N over the run.
func (o stabilityOutcome) maxDevFrac(n int) float64 {
	lo := float64(n-o.minSize) / float64(n)
	hi := float64(o.maxSize-n) / float64(n)
	if lo > hi {
		return lo
	}
	return hi
}

// runStability runs the protocol for `epochs` epochs under the arm's paced
// adversary and reports the outcome.
func runStability(p params.Params, arm stabilityArm, epochs int, seed uint64, sched match.Scheduler) (stabilityOutcome, error) {
	adv := arm.adversary
	k := 0
	if adv != nil && arm.perEpoch > 0 {
		k = 1
		adv = adversary.NewPaced(adversary.PerEpoch(p.T, arm.perEpoch, 1), adv)
	}
	pr, err := protocol.New(p)
	if err != nil {
		return stabilityOutcome{}, err
	}
	// Workers: 1 throughout the experiment suite: RunTrials already fans
	// trials out across the CPUs, so per-engine sharding would only
	// oversubscribe the scheduler. Engine output is identical either way.
	eng, err := sim.New(sim.Config{
		Workers:   1,
		Params:    p,
		Protocol:  pr,
		Adversary: adv,
		K:         k,
		Seed:      seed,
		Scheduler: sched,
	})
	if err != nil {
		return stabilityOutcome{}, err
	}
	lo, hi := p.Bounds()
	out := stabilityOutcome{minSize: p.N, maxSize: p.N, violatedAt: -1}
	for ep := 0; ep < epochs; ep++ {
		rep := eng.RunEpoch()
		if rep.MinSize < out.minSize {
			out.minSize = rep.MinSize
		}
		if rep.MaxSize > out.maxSize {
			out.maxSize = rep.MaxSize
		}
		out.endSize = rep.EndSize
		if out.violatedAt < 0 && (rep.MinSize < lo || rep.MaxSize > hi) {
			out.violatedAt = ep
		}
	}
	return out, nil
}

// verdict renders a REPRODUCED/DEVIATION verdict line.
func verdict(ok bool, okMsg, badMsg string) string {
	if ok {
		return "REPRODUCED: " + okMsg
	}
	return "DEVIATION: " + badMsg
}

// budgetLabel formats a per-epoch adversary budget for table cells.
func budgetLabel(perEpoch int) string {
	if perEpoch == 0 {
		return "0"
	}
	return fmt.Sprintf("%d/epoch", perEpoch)
}
