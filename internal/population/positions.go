package population

import (
	"encoding/binary"
	"math"

	"popstab/internal/pool"
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

// Placer chooses the position of a non-daughter agent: the initial
// population, insertions, and ForceResize padding. The model says "inserted
// agents appear wherever the adversary chooses"; a matcher's default Placer
// is oblivious (uniform), and the seam is pluggable so an adversary — or the
// rogue extension's clustered infiltration — can own placement instead
// (SetPlacer, QueuePlacement).
//
// Place is only ever invoked from the serial phases of a round (apply,
// adversary turn, construction), so implementations may consume randomness
// from a non-concurrent stream.
type Placer interface {
	// Place returns the position for one newly inserted agent.
	Place() Point
}

// PlaceFunc adapts a closure to Placer.
type PlaceFunc func() Point

// Place implements Placer.
func (f PlaceFunc) Place() Point { return f() }

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
	// Replaceable at runtime through SetPlacer; one-shot adversary-chosen
	// positions go through QueuePlacement instead.
	Place Placer
	// Spawn places a daughter given its parent's position. Required.
	Spawn func(parent Point) Point

	pos []Point
	// spare is the displaced double-buffer of the sharded apply scatter,
	// reused across rounds; daughters stages the serially-drawn daughter
	// positions of one AppliedPlan pass (see AppliedPlan).
	spare     []Point
	daughters []Point
	// queued holds explicit one-shot placements consumed FIFO by the next
	// insertions, ahead of the Place seam (the engine queues the adversary's
	// InsertAt positions here, immediately before the matching insert).
	queued []Point
	// pool, when set, shards AppliedPlan's scatter and EncodeState.
	pool *pool.Pool
}

var (
	_ Tracker  = (*Positions)(nil)
	_ PoolUser = (*Positions)(nil)
)

// SetPool implements PoolUser (wired through Population.SetPool).
func (ps *Positions) SetPool(p *pool.Pool) { ps.pool = p }

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

// SetPlacer swaps the Place seam and returns the previous Placer, so a
// caller that takes placement ownership (clustered infiltration) can restore
// the ambient placement afterwards.
func (ps *Positions) SetPlacer(p Placer) Placer {
	old := ps.Place
	ps.Place = p
	return old
}

// QueuePlacement stages an explicit position for the next inserted agent.
// Queued positions are consumed FIFO, ahead of the Place seam, and must be
// paired one-to-one with immediately following insertions: a stale queued
// entry would misplace an unrelated later insert.
func (ps *Positions) QueuePlacement(pt Point) {
	ps.queued = append(ps.queued, pt)
}

// place resolves the next insertion's position: queued placements first,
// then the pluggable Place seam.
func (ps *Positions) place() Point {
	if len(ps.queued) > 0 {
		pt := ps.queued[0]
		ps.queued = ps.queued[1:]
		if len(ps.queued) == 0 {
			ps.queued = nil
		}
		return pt
	}
	return ps.Place.Place()
}

// EncodeState writes the position side-array — the live positions AND any
// still-queued one-shot placements — into a snapshot payload. Queued
// placements are part of the capture because a snapshot may be taken while
// a placement is staged but its insertion has not happened yet (an external
// placement owner between rounds); dropping them would misplace the next
// insert after restore.
func (ps *Positions) EncodeState(e *wire.Enc) {
	// Bulk form of the historical per-field encode — identical bytes
	// (16 per point, X then Y as IEEE-754 bits), one Block reservation and a
	// sharded fill instead of 2n appends.
	n := len(ps.pos)
	e.U64(uint64(n))
	blk := e.Block(n * pointRecordSize)
	fill := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			r := blk[i*pointRecordSize:]
			binary.LittleEndian.PutUint64(r[0:8], math.Float64bits(ps.pos[i].X))
			binary.LittleEndian.PutUint64(r[8:16], math.Float64bits(ps.pos[i].Y))
		}
	}
	if ps.pool != nil {
		ps.pool.Run(n, minEncodeShard, fill)
	} else {
		fill(0, n)
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
		parse := func(lo, hi int) {
			for i := lo; i < hi; i++ {
				r := raw[i*pointRecordSize:]
				out[i] = Point{
					X: math.Float64frombits(binary.LittleEndian.Uint64(r[0:8])),
					Y: math.Float64frombits(binary.LittleEndian.Uint64(r[8:16])),
				}
			}
		}
		if ps.pool != nil {
			ps.pool.Run(n, minEncodeShard, parse)
		} else {
			parse(0, n)
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

// AppliedPlan implements Tracker: it replays Apply's stable compaction over
// the position array, Spawning one daughter position per split in the same
// order Apply appends daughter states. Spawn consumes the matcher's serial
// placement stream, so daughter positions are drawn FIRST, serially, in
// exact action order — the same draw order as ReplayApply, O(births) not
// O(n) — and staged; the O(n) compaction scatter then shards freely.
func (ps *Positions) AppliedPlan(plan *ApplyPlan) {
	idx := plan.SplitIndices()
	if cap(ps.daughters) < len(idx) {
		ps.daughters = make([]Point, 0, len(idx)+len(idx)/2)
	}
	ps.daughters = ps.daughters[:0]
	for _, i := range idx {
		ps.daughters = append(ps.daughters, ps.Spawn(ps.pos[i]))
	}
	ps.pos, ps.spare = ApplyPlannedStaged(plan, ps.pos, ps.spare, ps.daughters)
}
