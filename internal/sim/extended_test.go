package sim

import (
	"testing"

	"popstab/internal/agent"
	"popstab/internal/match"
	"popstab/internal/population"
	"popstab/internal/prng"
	"popstab/internal/protocol"
	"popstab/internal/wire"
)

// killerProgram is a minimal ExtendedStepper for engine-seam tests: the
// lower-indexed agent of every pair removes its neighbor, the higher-indexed
// one tries to split (and must lose to the removal).
type killerProgram struct{}

func (killerProgram) EpochLen() int                     { return 1 }
func (killerProgram) Decode(b uint8) wire.Message       { return wire.Message{} }
func (killerProgram) ComposeAt(int, *agent.State) uint8 { return 0 }
func (killerProgram) StepAt(i, j int, s *agent.State, nbr wire.Message, hasNbr bool, src *prng.Source) (population.Action, bool) {
	if !hasNbr {
		return population.ActKeep, false
	}
	if i < j {
		return population.ActKeep, true
	}
	return population.ActSplit, false
}

// TestExtendedKillOverridesSplit pins the neighbor-removal semantics: a
// killed agent is gone before it can divide, the removal is counted in both
// Kills and Deaths, and the report accounting stays consistent.
func TestExtendedKillOverridesSplit(t *testing.T) {
	p := fastParams(t)
	e, err := New(Config{
		Params:      p,
		Extended:    killerProgram{},
		Matcher:     match.FromScheduler(match.Full{}),
		InitialSize: 2,
		Seed:        1,
		Workers:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := e.RunRound()
	if rep.Kills != 1 || rep.Deaths != 1 || rep.Births != 0 {
		t.Fatalf("kills=%d deaths=%d births=%d, want 1/1/0: %+v",
			rep.Kills, rep.Deaths, rep.Births, rep)
	}
	if rep.SizeAfter != 1 {
		t.Fatalf("size after %d, want 1", rep.SizeAfter)
	}
	// The survivor is now unmatched every round: no further events.
	rep = e.RunRound()
	if rep.Kills != 0 || rep.Deaths != 0 || rep.Births != 0 || rep.SizeAfter != 1 {
		t.Fatalf("lone agent produced events: %+v", rep)
	}
}

// TestConfigSeamValidation pins the exactly-one rule of the program seam.
func TestConfigSeamValidation(t *testing.T) {
	p := fastParams(t)
	pr := protocol.MustNew(p)
	if _, err := New(Config{Params: p}); err == nil {
		t.Error("accepted neither Protocol nor Extended")
	}
	if _, err := New(Config{Params: p, Protocol: pr, Extended: killerProgram{}}); err == nil {
		t.Error("accepted both Protocol and Extended")
	}
}

// TestMatcherBindsToAdoptedPopulation verifies NewFromPopulation binds the
// matcher to the caller's population, not a discarded fresh one: the torus
// side-array must track the adopted population's size.
func TestMatcherBindsToAdoptedPopulation(t *testing.T) {
	p := fastParams(t)
	pr := protocol.MustNew(p)
	pop := population.New(123)
	tor, err := match.NewTorus(1.0 / 64)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewFromPopulation(Config{Params: p, Protocol: pr, Matcher: tor, Seed: 1, Workers: 1}, pop)
	if err != nil {
		t.Fatal(err)
	}
	if tor.Positions().Len() != 123 {
		t.Fatalf("torus bound to %d positions, want 123", tor.Positions().Len())
	}
	e.RunRound()
	if tor.Positions().Len() != e.Size() {
		t.Fatalf("positions %d != size %d after a round", tor.Positions().Len(), e.Size())
	}
}
