package sim

import (
	"testing"
	"time"

	"popstab/internal/adversary"
	"popstab/internal/match"
	"popstab/internal/params"
	"popstab/internal/population"
	"popstab/internal/prng"
	"popstab/internal/protocol"
)

func newStatsEngine(t *testing.T, workers int) *Engine {
	t.Helper()
	p, err := params.Derive(4096)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{
		Params:    p,
		Protocol:  protocol.MustNew(p),
		Adversary: adversary.None{},
		Seed:      7,
		Workers:   workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

func TestRoundStatsAccumulate(t *testing.T) {
	e := newStatsEngine(t, 2)
	if s := e.RoundStats(); s.Rounds != 0 {
		t.Fatalf("fresh engine stats = %+v", s)
	}
	const rounds = 20
	var births, deaths, net int
	for i := 0; i < rounds; i++ {
		rep := e.RunRound()
		births += rep.Births
		deaths += rep.Deaths
		net += rep.SizeAfter - rep.SizeBefore
	}
	s := e.RoundStats()
	if s.Rounds != rounds {
		t.Fatalf("Rounds = %d, want %d", s.Rounds, rounds)
	}
	if s.ComposeNS == 0 || s.MatchNS == 0 || s.StepNS == 0 || s.ApplyNS == 0 {
		t.Fatalf("phase counters not populated: %+v", s)
	}
	if s.KillFoldNS != 0 {
		t.Errorf("KillFoldNS must stay 0, there is no kill fold: %+v", s)
	}
	if s.Births != uint64(births) || s.Deaths != uint64(deaths) || s.NetGrowth != int64(net) {
		t.Errorf("population deltas diverge from reports: %+v vs births=%d deaths=%d net=%d",
			s, births, deaths, net)
	}
	if s.SnapshotNS != 0 || s.Snapshots != 0 {
		t.Errorf("no snapshot was taken: %+v", s)
	}

	// Sub yields the window delta.
	prev := s
	e.RunRound()
	d := e.RoundStats().Sub(prev)
	if d.Rounds != 1 {
		t.Fatalf("delta rounds = %d", d.Rounds)
	}
	if d.StepNS == 0 {
		t.Fatalf("delta step ns = %d", d.StepNS)
	}
}

func TestRoundStatsSnapshotTimed(t *testing.T) {
	e := newStatsEngine(t, 1)
	e.RunRounds(3)
	blob := e.Snapshot()
	s := e.RoundStats()
	if s.Snapshots != 1 || s.SnapshotNS == 0 {
		t.Fatalf("snapshot not timed: %+v", s)
	}

	// Stats live outside the snapshot: a restored engine starts at zero,
	// and restoring must not disturb the bytes-level determinism contract
	// (the restored run replays bit-identically, covered by session tests).
	e2 := newStatsEngine(t, 1)
	if err := e2.Restore(blob); err != nil {
		t.Fatal(err)
	}
	if s2 := e2.RoundStats(); s2.Rounds != 0 || s2.SnapshotNS != 0 {
		t.Fatalf("restored engine inherited stats: %+v", s2)
	}
}

func TestRoundStatsPhasesStableNames(t *testing.T) {
	s := RoundStats{AdversaryNS: 1, ComposeNS: 2, MatchNS: 3, StepNS: 4, KillFoldNS: 5, ApplyNS: 6, SnapshotNS: 7}
	want := []string{"adversary", "compose", "match", "step", "kill_fold", "apply", "snapshot"}
	ph := s.Phases()
	if len(ph) != len(want) {
		t.Fatalf("phases = %d, want %d", len(ph), len(want))
	}
	for i, p := range ph {
		if p.Name != want[i] {
			t.Errorf("phase[%d] = %q, want %q", i, p.Name, want[i])
		}
		if p.NS != uint64(i+1) {
			t.Errorf("phase %s ns = %d, want %d", p.Name, p.NS, i+1)
		}
	}
}

func TestRoundStatsWorkerCountInvariantContent(t *testing.T) {
	// Timings differ across worker counts, but the content-bearing fields
	// (rounds, births, deaths, net growth) must not — they mirror the
	// deterministic simulation.
	a := newStatsEngine(t, 1)
	b := newStatsEngine(t, 4)
	for i := 0; i < 10; i++ {
		a.RunRound()
		b.RunRound()
	}
	sa, sb := a.RoundStats(), b.RoundStats()
	if sa.Births != sb.Births || sa.Deaths != sb.Deaths || sa.NetGrowth != sb.NetGrowth {
		t.Fatalf("content diverges across workers: %+v vs %+v", sa, sb)
	}
}

// slowMatcher delays every sample, so a compose timer that also spanned the
// matching would read at least the delay.
type slowMatcher struct {
	match.Matcher
	delay time.Duration
}

func (m slowMatcher) SampleMatch(pop *population.Population, src *prng.Source, p *match.Pairing) {
	time.Sleep(m.delay)
	m.Matcher.SampleMatch(pop, src, p)
}

// TestRoundStatsComposeExcludesMatch pins ComposeNS to compose's own time
// on the serial path, where compose runs inline before the matching: the
// matcher's time lands in MatchNS only.
func TestRoundStatsComposeExcludesMatch(t *testing.T) {
	p, err := params.Derive(4096)
	if err != nil {
		t.Fatal(err)
	}
	const delay, rounds = 30 * time.Millisecond, 3
	e := MustNew(Config{
		Params:   p,
		Protocol: protocol.MustNew(p),
		Matcher:  slowMatcher{match.FromScheduler(match.Uniform{Gamma: p.Gamma}), delay},
		Seed:     7,
		Workers:  1,
	})
	defer e.Close()
	e.RunRounds(rounds)
	s := e.RoundStats()
	if s.MatchNS < uint64(rounds*delay) {
		t.Fatalf("MatchNS %v < %d sleeps of %v", time.Duration(s.MatchNS), rounds, delay)
	}
	if s.ComposeNS == 0 || s.ComposeNS >= uint64(delay) {
		t.Fatalf("ComposeNS %v over %d rounds: want compose's own time, not the %v matcher",
			time.Duration(s.ComposeNS), rounds, delay)
	}
}
