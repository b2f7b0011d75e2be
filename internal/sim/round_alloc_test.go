package sim

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"popstab/internal/adversary"
	"popstab/internal/match"
)

// TestSteadyStateRoundAllocs gates the steady-state round's heap
// allocations exactly, round by round, on every topology of the gallery,
// with no adversary and with the greedy adversary paced at the paper's
// per-epoch budget. At Workers 1 a round allocates nothing. At Workers 2
// the only allocation is pool.Run's call, one per Run that splits into more
// than one part: the step phase every round, plus the spatial candidate
// phase in every round that builds its rows (every round on SmallWorld,
// whose rows are rebuilt every sample; on the other spatial topologies the
// rounds whose positions changed). The compose∥match overlap (pool.Share)
// reuses the pool's call and allocates nothing.
//
// Patch strategies are left out: DeleteNear still allocates its candidate
// list on every call.
//
// Warm-up runs the first epoch and the round after it, which sizes every
// reused buffer. The spatial populations still drift upward at this N (by
// about 5% an epoch), so a round may pass the population's peak, and the
// arrays sized to it grow then, each with slack: the population's states
// and the positions, and the pairing's two agent arrays. Each array's
// growth is one allocation, and the test counts it from the capacities, so
// the gate stays exact in those rounds too.
//
// The count is taken from runtime.MemStats around each round, as
// testing.AllocsPerRun does, but for every round on its own: an average
// over rounds, or a count of every other round, would hide an allocation of
// the rounds the adversary acts in. As in AllocsPerRun, GOMAXPROCS is 1,
// and the collector is off: otherwise a few rounds at Workers 2 counted
// objects of the runtime's own, the goroutines and threads it starts for
// the collector's mark workers and for woken goroutines (runtime.malg and
// runtime.allocm in a memory profile).
func TestSteadyStateRoundAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := fastParams(t)
	topologies := []struct {
		name    string
		matcher func() (match.Matcher, error)
	}{
		{"mixed", func() (match.Matcher, error) { return nil, nil }},
		{"torus", func() (match.Matcher, error) { return match.NewTorus(0.015625) }},
		{"grid", func() (match.Matcher, error) { return match.NewGrid(0.015625) }},
		{"ring", func() (match.Matcher, error) { return match.NewRing(1.0 / 4096) }},
		{"smallworld", func() (match.Matcher, error) { return match.NewSmallWorld(1.0/4096, 0.1) }},
	}
	adversaries := []struct {
		name string
		cfg  func(epochLen int) Config
	}{
		{"none", func(int) Config { return Config{} }},
		{"greedy", func(epochLen int) Config {
			period := adversary.PerEpoch(epochLen, p.MaxTolerableK(), 1)
			return Config{K: 1, Adversary: adversary.NewPaced(period, adversary.NewGreedy())}
		}},
	}
	for _, topo := range topologies {
		for _, adv := range adversaries {
			for _, workers := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", topo.name, adv.name, workers), func(t *testing.T) {
					m, err := topo.matcher()
					if err != nil {
						t.Fatal(err)
					}
					cfg := adv.cfg(p.T)
					cfg.Seed, cfg.Workers, cfg.Matcher = 29, workers, m
					e, _ := newEngine(t, p, cfg)
					defer e.Close()
					e.RunEpoch()
					e.RunRound()
					rowBuilds := func() uint64 { return 0 }
					if pr, ok := m.(match.PhaseReporter); ok {
						rowBuilds = func() uint64 { return pr.PipelineStats().RowBuilds }
					}
					// caps reads the capacities of the arrays sized to the
					// population's peak, and growthAllocs is what a growth of
					// each allocates: resize grows the pairing's perm with Nbr.
					caps := func() (c [3]int) {
						c[0], c[1] = cap(e.pop.States()), cap(e.pairing.Nbr)
						if e.space != nil {
							c[2] = cap(e.space.Positions().Slice())
						}
						return c
					}
					growthAllocs := [3]uint64{1, 2, 1}
					var before, after runtime.MemStats
					for range p.T {
						builds, caps0 := rowBuilds(), caps()
						runtime.ReadMemStats(&before)
						e.RunRound()
						runtime.ReadMemStats(&after)
						want := uint64(0)
						if workers > 1 {
							want = 1 + rowBuilds() - builds
						}
						for i, c := range caps() {
							if c != caps0[i] {
								want += growthAllocs[i]
							}
						}
						if got := after.Mallocs - before.Mallocs; got != want {
							t.Fatalf("round %d allocates %d objects, want %d", e.GlobalRound()-1, got, want)
						}
					}
				})
			}
		}
	}
}
