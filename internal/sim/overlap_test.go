package sim

import (
	"fmt"
	"runtime"
	"testing"

	"popstab/internal/adversary"
	"popstab/internal/match"
	"popstab/internal/population"
	"popstab/internal/prng"
	"popstab/internal/protocol"
)

// pulsedAdversary wraps a strategy so it acts only every `period` rounds,
// interleaving rounds WITH staged alterations and rounds WITHOUT in one
// trajectory.
type pulsedAdversary struct {
	inner  adversary.Adversary
	period int
	calls  int
}

func (a *pulsedAdversary) Name() string { return "pulsed+" + a.inner.Name() }

func (a *pulsedAdversary) Act(v adversary.View, m adversary.Mutator, src *prng.Source) {
	a.calls++
	if a.calls%a.period == 1 {
		a.inner.Act(v, m, src)
	}
}

// TestAdversaryOverlapGolden is the Workers-invariance guarantee of a
// spatial adversary: a spatial round with both an adversary turn and
// matching produces the identical trajectory at Workers 1 and Workers > 1
// (where matching overlaps compose and the spatial pipeline shards), across
// rounds that alter the population and rounds that stage nothing.
func TestAdversaryOverlapGolden(t *testing.T) {
	p := fastParams(t)
	center := population.Point{X: 0.5, Y: 0.5}
	run := func(workers int) ([]RoundReport, []string) {
		tor, err := match.NewTorus(0.015625)
		if err != nil {
			t.Fatal(err)
		}
		e := MustNew(Config{
			Params: p, Protocol: protocol.MustNew(p), Seed: 42, Workers: workers,
			Matcher:   tor,
			Adversary: &pulsedAdversary{inner: adversary.NewPatchCombo(center, 0.05, nil), period: 3},
			K:         32,
		})
		defer e.Close()
		var reps []RoundReport
		var censuses []string
		for r := 0; r < 12; r++ {
			reps = append(reps, e.RunRound())
			censuses = append(censuses, fmt.Sprintf("%+v", e.Census()))
		}
		return reps, censuses
	}
	wantReps, wantCens := run(1)
	altered, quiet := 0, 0
	for _, r := range wantReps {
		if r.AdvInserted+r.AdvDeleted > 0 {
			altered++
		} else {
			quiet++
		}
	}
	if altered == 0 || quiet == 0 {
		t.Fatalf("trajectory must mix altering (%d) and quiet (%d) adversary rounds", altered, quiet)
	}
	for _, w := range []int{2, 4, runtime.NumCPU()} {
		gotReps, gotCens := run(w)
		for i := range wantReps {
			if gotReps[i] != wantReps[i] {
				t.Fatalf("workers=%d: round %d report diverged:\ngot  %+v\nwant %+v", w, i, gotReps[i], wantReps[i])
			}
			if gotCens[i] != wantCens[i] {
				t.Fatalf("workers=%d: round %d census diverged:\ngot  %s\nwant %s", w, i, gotCens[i], wantCens[i])
			}
		}
	}
}
