// Package adversary defines the worst-case adversary of the population
// stability model (paper §2, "Adversary") and a library of attack
// strategies.
//
// The adversary is computationally unbounded, observes the memory contents
// of every agent, and may perform up to K alterations per round, where an
// alteration inserts an agent with arbitrary initial state or deletes an
// arbitrary agent. Inserted agents follow the protocol from their inserted
// state (the model explicitly excludes agents running malicious code). The
// adversary does not know the current round's matching in advance: the
// engine invokes it before sampling the matching.
//
// Strategies receive a read-only View of the population and a budget-
// enforcing Mutator. All state inspection the paper permits is available;
// strategies must not retain the View past the Act call.
package adversary

import (
	"fmt"
	"slices"
	"sort"

	"popstab/internal/agent"
	"popstab/internal/params"
	"popstab/internal/population"
	"popstab/internal/prng"
)

// View is the adversary's read access to the system: the full memory of
// every agent plus the global clock, per the model — and, on a spatial
// communication topology, the agents' positions and the topology's metric
// (the paper's adversary observes the entire system state; on the §1.2
// geometric models the geometry is part of that state, not an
// implementation detail). Position-blind View implementations embed
// Flatland for the spatial methods.
type View interface {
	// Len reports the current population size.
	Len() int
	// State returns a copy of agent i's full memory.
	State(i int) agent.State
	// Census returns an aggregate snapshot (computed on demand).
	Census() population.Census
	// GlobalRound reports the number of completed rounds since the system
	// started.
	GlobalRound() uint64
	// EpochRound reports GlobalRound modulo the epoch length T: the round
	// counter a correct agent holds right now.
	EpochRound() int
	// Params exposes the protocol parameters (public knowledge).
	Params() params.Params
	// Find appends to dst the indices of up to limit agents satisfying
	// pred, in container order, returning the extended slice. limit < 0
	// means unlimited.
	Find(dst []int, limit int, pred func(agent.State) bool) []int

	// HasSpace reports whether the communication model carries agent
	// positions. The remaining spatial methods degrade gracefully when it
	// is false.
	HasSpace() bool
	// Pos returns agent i's position (the zero Point without space).
	Pos(i int) population.Point
	// Dist2 is the squared distance between two positions under the
	// topology's metric (0 without space).
	Dist2(a, b population.Point) float64
	// FindNear appends to dst the indices of up to limit agents within
	// distance r of center, in container order, returning the extended
	// slice. limit < 0 means unlimited. Without space it returns dst
	// unchanged.
	FindNear(dst []int, limit int, center population.Point, r float64) []int
	// CountNear reports the number of agents within distance r of center
	// under the topology's metric — the density query adaptive patch
	// strategies re-center on (an O(n) scan, fine for the computationally
	// unbounded model adversary). Without space it reports −1, which is
	// distinguishable from an empty ball.
	CountNear(center population.Point, r float64) int
	// PatchPoint draws a position uniformly within distance r of center
	// under the topology's geometry, consuming src (center itself without
	// space).
	PatchPoint(center population.Point, r float64, src *prng.Source) population.Point
}

// Flatland provides the position-blind defaults of View's spatial methods;
// View implementations over non-spatial systems embed it.
type Flatland struct{}

// HasSpace reports false.
func (Flatland) HasSpace() bool { return false }

// Pos returns the zero Point.
func (Flatland) Pos(int) population.Point { return population.Point{} }

// Dist2 reports 0 (there is no metric).
func (Flatland) Dist2(a, b population.Point) float64 { return 0 }

// FindNear returns dst unchanged (no agent has a position).
func (Flatland) FindNear(dst []int, limit int, center population.Point, r float64) []int {
	return dst
}

// CountNear reports −1: there is no geometry to count in.
func (Flatland) CountNear(center population.Point, r float64) int { return -1 }

// PatchPoint returns center, consuming nothing.
func (Flatland) PatchPoint(center population.Point, r float64, src *prng.Source) population.Point {
	return center
}

// Mutator is the adversary's write access, with the per-round budget K
// enforced. Every successful Delete, Insert, InsertAt, or DeleteNear victim
// consumes one unit; the spatial operations degrade to their position-blind
// forms when the communication model carries no positions.
type Mutator interface {
	// Delete marks agent i for removal at the end of the adversary's turn.
	// It reports false (consuming nothing) if the budget is exhausted, the
	// index is out of range, or the agent was already marked.
	Delete(i int) bool
	// Insert adds an agent with the given initial state at the end of the
	// adversary's turn. The round counter is reduced modulo T, as the
	// physical register would store it. Reports false if the budget is
	// exhausted.
	Insert(s agent.State) bool
	// InsertAt is Insert with an adversary-chosen position: the agent
	// appears at pt instead of the topology's oblivious placement ("inserted
	// agents appear wherever the adversary chooses"). Without space the
	// point is ignored and InsertAt is exactly Insert.
	InsertAt(s agent.State, pt population.Point) bool
	// DeleteNear marks for deletion up to limit agents (limit < 0 means
	// budget-bounded only) within distance r of center, nearest first under
	// the topology's metric with ties broken by ascending index, and
	// reports how many it marked. Each victim consumes one budget unit.
	// Without space it marks nothing.
	DeleteNear(center population.Point, r float64, limit int) int
	// Remaining reports the unused budget for this round.
	Remaining() int
}

// Adversary is one attack strategy.
type Adversary interface {
	// Name identifies the strategy in experiment output.
	Name() string
	// Act performs this round's alterations. src is the adversary's private
	// randomness stream (a worst-case adversary may ignore it).
	Act(v View, m Mutator, src *prng.Source)
}

// None is the absent adversary.
type None struct{}

var _ Adversary = None{}

// Name reports "none".
func (None) Name() string { return "none" }

// Act does nothing.
func (None) Act(View, Mutator, *prng.Source) {}

// Insertion is one staged insertion: the inserted state and, when Placed,
// the adversary-chosen position.
type Insertion struct {
	// State is the inserted agent's full memory.
	State agent.State
	// At is the chosen position; meaningful only when Placed.
	At population.Point
	// Placed reports whether the insertion carries an explicit position
	// (InsertAt on a spatial topology) or uses the oblivious placement.
	Placed bool
}

// Budget tracks and enforces the per-round alteration budget K shared by
// insertions and deletions. The engine owns one Budget and Resets it at
// every adversary turn, so a turn reuses its storage instead of allocating;
// strategies must not retain it past Act. It implements Mutator over staged
// operations so that index semantics are stable while the adversary is
// still reading the View. On a spatial
// topology the engine additionally binds the position side-array and metric
// (BindSpace) so the spatial Mutator operations resolve against the same
// state the View exposes.
type Budget struct {
	k         int
	used      int
	deletions map[int]struct{}
	inserts   []Insertion
	epochLen  int
	popLen    int

	// pos and dist2 are the bound space (nil without a spatial topology).
	// pos is read-only for the turn: structural mutations are staged, so
	// the slice stays valid until the engine applies them.
	pos   []population.Point
	dist2 func(a, b population.Point) float64

	// dels is the reused storage of Deletions' sorted list.
	dels []int
}

var _ Mutator = (*Budget)(nil)

// NewBudget prepares a budget of k alterations against a population of
// popLen agents with epoch length epochLen. The deletion set is sized for
// the min(k, popLen) deletions a turn can stage, not for k: k comes from
// the spec, and a huge one must not allocate before a single agent exists.
func NewBudget(k, popLen, epochLen int) *Budget {
	b := &Budget{deletions: make(map[int]struct{}, min(k, popLen))}
	b.Reset(k, popLen, epochLen)
	return b
}

// Reset empties the budget for a new turn of k alterations against a
// population of popLen agents with epoch length epochLen, keeping its
// storage. It unbinds the space: BindSpace again on a spatial topology.
func (b *Budget) Reset(k, popLen, epochLen int) {
	clear(b.deletions)
	b.inserts = b.inserts[:0]
	b.k, b.used, b.popLen, b.epochLen = k, 0, popLen, epochLen
	b.pos, b.dist2 = nil, nil
}

// BindSpace attaches the position side-array and metric of the round's
// spatial topology, enabling InsertAt and DeleteNear. The engine calls it
// once per turn, before the strategy acts; pos must stay unmutated for the
// turn (the Budget only stages operations, so it upholds this itself).
func (b *Budget) BindSpace(pos []population.Point, dist2 func(a, b population.Point) float64) {
	b.pos = pos
	b.dist2 = dist2
}

// Delete implements Mutator.
func (b *Budget) Delete(i int) bool {
	if b.used >= b.k || i < 0 || i >= b.popLen {
		return false
	}
	if _, dup := b.deletions[i]; dup {
		return false
	}
	b.deletions[i] = struct{}{}
	b.used++
	return true
}

// Insert implements Mutator.
func (b *Budget) Insert(s agent.State) bool {
	return b.insert(s, population.Point{}, false)
}

// InsertAt implements Mutator: the insertion carries the chosen position
// when a space is bound, and degrades to Insert otherwise.
func (b *Budget) InsertAt(s agent.State, pt population.Point) bool {
	return b.insert(s, pt, b.pos != nil)
}

// insert stages one insertion against the budget.
func (b *Budget) insert(s agent.State, pt population.Point, placed bool) bool {
	if b.used >= b.k {
		return false
	}
	if b.epochLen > 0 && int(s.Round) >= b.epochLen {
		s.Round %= uint32(b.epochLen)
	}
	b.inserts = append(b.inserts, Insertion{State: s, At: pt, Placed: placed})
	b.used++
	return true
}

// DeleteNear implements Mutator: victims are the unmarked agents within
// distance r of center, taken nearest first (ties by ascending index), each
// consuming one budget unit.
func (b *Budget) DeleteNear(center population.Point, r float64, limit int) int {
	if b.pos == nil || b.used >= b.k {
		return 0
	}
	quota := b.k - b.used
	if limit >= 0 && limit < quota {
		quota = limit
	}
	if quota <= 0 {
		return 0
	}
	// Collect candidates within the ball, then order by (distance, index).
	// The scan is O(n) over the side-array — the adversary's turn is serial
	// and the model's adversary is computationally unbounded, so clarity
	// wins over sublinear indexing here. The list is not kept across turns:
	// a ball holds thousands of agents, which the live heap would carry.
	type cand struct {
		i int
		d float64
	}
	r2 := r * r
	var cands []cand
	for i, pt := range b.pos {
		if _, dup := b.deletions[i]; dup {
			continue
		}
		if d := b.dist2(center, pt); d <= r2 {
			cands = append(cands, cand{i, d})
		}
	}
	sort.Slice(cands, func(x, y int) bool {
		if cands[x].d != cands[y].d {
			return cands[x].d < cands[y].d
		}
		return cands[x].i < cands[y].i
	})
	marked := 0
	for _, c := range cands {
		if marked >= quota {
			break
		}
		if b.Delete(c.i) {
			marked++
		}
	}
	return marked
}

// Remaining implements Mutator.
func (b *Budget) Remaining() int { return b.k - b.used }

// Used reports the number of alterations consumed.
func (b *Budget) Used() int { return b.used }

// Deletions returns the staged deletion indices in strictly descending
// order, ready for population.DeleteDescending. The slice is the budget's
// own, valid until the next Deletions or Reset.
func (b *Budget) Deletions() []int {
	out := b.dels[:0]
	for i := range b.deletions {
		out = append(out, i)
	}
	slices.Sort(out)
	slices.Reverse(out)
	b.dels = out
	return out
}

// Inserts returns the staged insertions in stage order; the engine applies
// them after the deletions, honoring each Insertion's position when Placed.
func (b *Budget) Inserts() []Insertion { return b.inserts }

// String summarizes the staged operations.
func (b *Budget) String() string {
	return fmt.Sprintf("budget %d/%d (del=%d ins=%d)", b.used, b.k, len(b.deletions), len(b.inserts))
}
