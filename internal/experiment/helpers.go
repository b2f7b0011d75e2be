package experiment

import (
	"fmt"
	"math"

	"popstab"
	"popstab/internal/params"
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

// newSim builds an arm from its Spec: sp on p's population target,
// subphase length, matched fraction and half-width, seeded with seed.
// Workers is 1 throughout the suite: RunTrials already fans trials out
// across the CPUs, so per-engine sharding would only oversubscribe the
// scheduler. Engine output is identical either way.
func newSim(p params.Params, seed uint64, sp popstab.Spec) (*popstab.Sim, error) {
	sp.N, sp.Tinner, sp.Gamma, sp.Alpha = p.N, p.Tinner, p.Gamma, p.Alpha
	sp.Seed, sp.Workers = seed, 1
	return popstab.New(sp)
}

// stabilityArm is one (adversary, budget) configuration of a stability run:
// a strategy by registry name ("none" for no adversary) paced at perEpoch
// alterations per epoch.
type stabilityArm struct {
	adversary string
	perEpoch  int
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

// firstViolation renders violatedAt for table cells.
func (o stabilityOutcome) firstViolation() string {
	if o.violatedAt < 0 {
		return "none"
	}
	return fmtI(o.violatedAt)
}

// runStability runs the protocol for `epochs` epochs under the arm's paced
// adversary and reports the outcome.
func runStability(p params.Params, arm stabilityArm, epochs int, seed uint64) (stabilityOutcome, error) {
	return runEpochs(p, seed, paced(arm.adversary, arm.perEpoch), epochs, math.MaxInt)
}

// paced is the Spec of the named strategy paced at perEpoch alterations per
// epoch; budget 0 means no adversary at all.
func paced(adversary string, perEpoch int) popstab.Spec {
	if perEpoch == 0 {
		return popstab.Spec{}
	}
	return popstab.Spec{Adversary: adversary, PerEpochBudget: perEpoch}
}

// runEpochs runs sp epoch by epoch, for at most epochs epochs and while the
// population stays below stopAt, and reports the outcome. The locality
// sweeps stop at 4N: the run has left the interval for good by then.
func runEpochs(p params.Params, seed uint64, sp popstab.Spec, epochs, stopAt int) (stabilityOutcome, error) {
	s, err := newSim(p, seed, sp)
	if err != nil {
		return stabilityOutcome{}, err
	}
	lo, hi := p.Bounds()
	out := stabilityOutcome{minSize: p.N, maxSize: p.N, endSize: s.Size(), violatedAt: -1}
	for ep := 0; ep < epochs && s.Size() < stopAt; ep++ {
		rep := s.RunEpoch()
		out.minSize = min(out.minSize, rep.MinSize)
		out.maxSize = max(out.maxSize, rep.MaxSize)
		out.endSize = rep.EndSize
		if out.violatedAt < 0 && (rep.MinSize < lo || rep.MaxSize > hi) {
			out.violatedAt = ep
		}
	}
	return out, nil
}

// cohort is the size of every rogue cohort the suite seeds; a run ends in
// takeover when at least this many rogues are left.
const cohort = 64

// cohortOutcome is where a rogue cohort stands at the end of its horizon.
type cohortOutcome struct {
	honest, rogues, kills int
}

// contained reports whether the cohort died back below its initial size.
func (o cohortOutcome) contained() bool { return o.rogues < cohort }

// label renders the outcome for table cells.
func (o cohortOutcome) label() string {
	if o.contained() {
		return "contained"
	}
	return "takeover"
}

// runCohort runs sp, whose Rogue field seeds the cohort, round by round for
// at most horizon rounds and while the population stays below 4N.
func runCohort(p params.Params, seed uint64, sp popstab.Spec, horizon int) (cohortOutcome, error) {
	s, err := newSim(p, seed, sp)
	if err != nil {
		return cohortOutcome{}, err
	}
	for i := 0; i < horizon && s.Size() < 4*p.N; i++ {
		s.RunRound()
	}
	var out cohortOutcome
	out.honest, out.rogues = s.RogueCounts()
	out.kills = int(s.RogueStats().RogueKills)
	return out, nil
}

// rogues is the suite's rogue cohort replicating every r rounds, detected on
// contact with probability detect.
func rogues(r int, detect float64) *popstab.RogueSpec {
	return &popstab.RogueSpec{ReplicateEvery: r, DetectProb: detect, InitialRogues: cohort}
}

// locality is a communication topology as a Spec names it, with
// smallworld's rewiring probability.
type locality struct {
	topology string
	rewire   float64
}

// on returns sp on the topology.
func (l locality) on(sp popstab.Spec) popstab.Spec {
	sp.Topology, sp.RewireProb = l.topology, l.rewire
	return sp
}

// String labels the topology in table cells: smallworld carries its
// rewiring probability, e.g. "smallworld(0.5)".
func (l locality) String() string {
	if l.rewire == 0 {
		return l.topology
	}
	return fmt.Sprintf("%s(%g)", l.topology, l.rewire)
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
