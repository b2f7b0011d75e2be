package population

import (
	"testing"

	"popstab/internal/agent"
	"popstab/internal/prng"
	"popstab/internal/wire"
)

// TestPositionsSnapshotRoundTrip is a fuzz-style table over the tricky
// Positions state: random population sizes with random numbers of queued
// one-shot placements, a random prefix of which was already consumed by
// insertions before the snapshot. The restored side-array must reproduce
// the live positions exactly AND keep the remaining queue's FIFO contract:
// the next insertions after restore land on the same staged points the
// uninterrupted container would have used.
func TestPositionsSnapshotRoundTrip(t *testing.T) {
	src := prng.New(77)
	for trial := 0; trial < 64; trial++ {
		n := 1 + src.Intn(200)
		staged := src.Intn(8)
		consumed := 0
		if staged > 0 {
			consumed = src.Intn(staged + 1)
		}

		build := func() (*Population, *Positions) {
			place := prng.New(uint64(1000 + trial)) // deterministic per trial
			pop := New(0)
			ps := &Positions{
				Place: func() Point { return Point{X: place.Float64(), Y: place.Float64()} },
				Spawn: func(parent Point) Point { return parent },
			}
			pop.Attach(ps)
			return pop, ps
		}
		pop, ps := build()
		for i := 0; i < n; i++ {
			pop.Insert(agent.State{Round: uint32(i % 7)})
		}
		points := make([]Point, staged)
		for q := 0; q < staged; q++ {
			points[q] = Point{X: float64(trial) + float64(q)/16, Y: float64(q)}
			ps.QueuePlacement(points[q])
		}
		for c := 0; c < consumed; c++ {
			pop.Insert(agent.State{Active: true})
		}

		e := wire.NewEnc()
		e.Begin(1)
		pop.EncodeState(e)
		ps.EncodeState(e)
		e.End()
		blob := e.Finish()

		pop2, ps2 := build()
		d, err := wire.NewDec(blob)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		d.Begin(1)
		if err := pop2.DecodeState(d); err != nil {
			t.Fatalf("trial %d: decode population: %v", trial, err)
		}
		if err := ps2.DecodeState(d); err != nil {
			t.Fatalf("trial %d: decode positions: %v", trial, err)
		}
		d.End()
		if err := d.Err(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		if pop2.Len() != pop.Len() || ps2.Len() != ps.Len() {
			t.Fatalf("trial %d: restored sizes %d/%d, want %d/%d",
				trial, pop2.Len(), ps2.Len(), pop.Len(), ps.Len())
		}
		for i := 0; i < pop.Len(); i++ {
			if pop2.State(i) != pop.State(i) {
				t.Fatalf("trial %d: agent %d state %+v, want %+v", trial, i, pop2.State(i), pop.State(i))
			}
			if ps2.At(i) != ps.At(i) {
				t.Fatalf("trial %d: position %d = %v, want %v", trial, i, ps2.At(i), ps.At(i))
			}
		}

		// FIFO contract across the boundary: drain the remaining queue on
		// both containers and compare landing points against the staged
		// order. (Continuation of the Place STREAM itself is the owning
		// matcher's state, restored — and golden-tested — at the engine
		// level.)
		remaining := staged - consumed
		for k := 0; k < remaining; k++ {
			i1 := pop.Insert(agent.State{})
			i2 := pop2.Insert(agent.State{})
			if i1 != i2 {
				t.Fatalf("trial %d: insert indices diverge (%d vs %d)", trial, i1, i2)
			}
			want := points[consumed+k]
			if ps.At(i1) != want || ps2.At(i2) != want {
				t.Fatalf("trial %d: queue order broken at %d: orig %v restored %v, want %v",
					trial, k, ps.At(i1), ps2.At(i2), want)
			}
		}
	}
}
