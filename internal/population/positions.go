package population

import (
	"encoding/binary"
	"math"
	"slices"

	"popstab/internal/wire"
)

// pointRecordSize is the snapshot payload size of one Point: X then Y as
// IEEE-754 bits.
const pointRecordSize = 16

// Point is a position on the unit 2-torus. The model's agents are
// anonymous and unlocated; positions exist only for spatial communication
// models (paper §1.2, "Alternate communication models") and live in a side-
// array rather than in agent.State.
type Point struct {
	X, Y float64
}

// Positions is a per-agent position side-array kept index-aligned with a
// Population via the Tracker hooks. Spatial matchers (match.Torus) own one
// and register it with Population.Attach; the placement seams encode the
// model's geometry:
//
//   - Place positions an agent that did not arise from a split — the initial
//     population, adversarial insertions, and ForceResize padding ("inserted
//     agents appear wherever the adversary chooses"; the default is uniform);
//   - Spawn positions a daughter relative to its parent ("daughters of a
//     split appear next to their parent", cell division).
//
// Both seams run only from the serial phases of the round (apply,
// adversary turn), so any randomness they consume is deterministic and
// independent of the engine's worker count.
type Positions struct {
	// Place returns a fresh position for a non-daughter agent. Required.
	// Explicitly chosen positions (the adversary's InsertAt, the rogue
	// extension's clustered cohort) go through QueuePlacement instead.
	Place func() Point
	// Spawn places a daughter given its parent's position. Required.
	Spawn func(parent Point) Point

	pos []Point
	// queued holds explicit one-shot placements consumed FIFO by the next
	// insertions, ahead of the Place seam (the engine queues the adversary's
	// InsertAt positions here, immediately before the matching insert).
	queued []Point
}

var _ Tracker = (*Positions)(nil)

// Len reports the number of tracked positions.
func (ps *Positions) Len() int { return len(ps.pos) }

// At returns agent i's position.
func (ps *Positions) At(i int) Point { return ps.pos[i] }

// SetAt overwrites agent i's position. Serial phases only; used to re-place
// agents whose position was decided after their insertion (the rogue
// extension's clustered initial cohort).
func (ps *Positions) SetAt(i int, pt Point) { ps.pos[i] = pt }

// Slice exposes the underlying position array for read access on hot paths
// (grid bucketing). The slice is invalidated by any structural mutation.
func (ps *Positions) Slice() []Point { return ps.pos }

// Queued exposes the staged one-shot placements (QueuePlacement) for read
// access, oldest first.
func (ps *Positions) Queued() []Point { return ps.queued }

// QueuePlacement stages an explicit position for the next inserted agent.
// Queued positions are consumed FIFO, ahead of the Place seam, and must be
// paired one-to-one with immediately following insertions: a stale queued
// entry would misplace an unrelated later insert.
func (ps *Positions) QueuePlacement(pt Point) {
	ps.queued = append(ps.queued, pt)
}

// place resolves the next insertion's position: queued placements first,
// then the Place seam.
func (ps *Positions) place() Point {
	if len(ps.queued) > 0 {
		// Shift rather than reslice, so the queue keeps its storage: the
		// engine queues one placement per placed insertion, every turn.
		pt := ps.queued[0]
		ps.queued = slices.Delete(ps.queued, 0, 1)
		return pt
	}
	return ps.Place()
}

// EncodeState writes the position side-array — the live positions AND any
// still-queued one-shot placements — into a snapshot payload. Queued
// placements are part of the capture because a snapshot may be taken while
// a placement is staged but its insertion has not happened yet (an external
// placement owner between rounds); dropping them would misplace the next
// insert after restore.
func (ps *Positions) EncodeState(e *wire.Enc) {
	// Bulk form of the historical per-field encode — identical bytes
	// (16 per point, X then Y as IEEE-754 bits), one Block reservation
	// instead of 2n appends.
	n := len(ps.pos)
	e.U64(uint64(n))
	blk := e.Block(n * pointRecordSize)
	for i, pt := range ps.pos {
		r := blk[i*pointRecordSize:]
		binary.LittleEndian.PutUint64(r[0:8], math.Float64bits(pt.X))
		binary.LittleEndian.PutUint64(r[8:16], math.Float64bits(pt.Y))
	}
	// The placement queue is a handful of staged points at most; per-field.
	e.U64(uint64(len(ps.queued)))
	for _, pt := range ps.queued {
		e.F64(pt.X)
		e.F64(pt.Y)
	}
}

// DecodeState replaces the position array and placement queue with a
// snapshot payload written by EncodeState. The Place/Spawn seams are left
// untouched: they are construction-time wiring, re-established by building
// the matcher from the same configuration before restoring.
func (ps *Positions) DecodeState(d *wire.Dec) error {
	readPoints := func(what string) ([]Point, error) {
		n := d.Count(pointRecordSize, what)
		if err := d.Err(); err != nil {
			return nil, err
		}
		if n == 0 {
			return nil, nil
		}
		raw := d.Raw(n * pointRecordSize)
		if err := d.Err(); err != nil {
			return nil, err
		}
		out := make([]Point, n, n+n/2)
		for i := range out {
			r := raw[i*pointRecordSize:]
			out[i] = Point{
				X: math.Float64frombits(binary.LittleEndian.Uint64(r[0:8])),
				Y: math.Float64frombits(binary.LittleEndian.Uint64(r[8:16])),
			}
		}
		return out, nil
	}
	pos, err := readPoints("position")
	if err != nil {
		return err
	}
	queued, err := readPoints("queued placement")
	if err != nil {
		return err
	}
	ps.pos = pos
	ps.queued = queued
	return nil
}

// Attached implements Tracker: every initial agent gets a Place position.
func (ps *Positions) Attached(n int) {
	ps.pos = make([]Point, 0, n+n/2)
	for i := 0; i < n; i++ {
		ps.pos = append(ps.pos, ps.place())
	}
}

// Inserted implements Tracker: inserted agents get a queued position if one
// is staged, else a Place position.
func (ps *Positions) Inserted(i int) {
	if i != len(ps.pos) {
		panic("population: Positions out of sync with population on insert")
	}
	ps.pos = append(ps.pos, ps.place())
}

// DeletedSwap implements Tracker.
func (ps *Positions) DeletedSwap(i, last int) {
	ps.pos[i] = ps.pos[last]
	ps.pos = ps.pos[:last]
}

// Applied implements Tracker: it replays Apply's compaction over the
// position array, Spawning one daughter position per split in the order
// Apply appends daughter states. Spawn consumes the matcher's serial
// placement stream; Compact calls it in action order, the draw order of
// ReplayApply.
func (ps *Positions) Applied(actions []Action) {
	ps.pos, _ = Compact(ps.pos, actions, ps.Spawn)
}
