// Package population implements the container of living agents and the
// census used by tests, adversaries, and experiments.
//
// The model's population is an unordered multiset of agent states: agents
// have no identifiers and cannot address one another (paper §2). The
// container therefore stores states contiguously in arbitrary order and uses
// swap-deletion; indices are only meaningful within a single round.
package population

import (
	"encoding/binary"
	"fmt"

	"popstab/internal/agent"
	"popstab/internal/pool"
	"popstab/internal/wire"
)

// Action is the per-agent outcome of one protocol step.
type Action uint8

// Possible actions. ActKeep is the zero value so that a cleared action
// buffer defaults to keeping every agent.
const (
	// ActKeep leaves the agent as is.
	ActKeep Action = iota
	// ActDie removes the agent (Die() in the paper).
	ActDie
	// ActSplit duplicates the agent; the daughter inherits the agent's
	// post-step state (Split() in the paper).
	ActSplit
)

// String names the action.
func (a Action) String() string {
	switch a {
	case ActKeep:
		return "keep"
	case ActDie:
		return "die"
	case ActSplit:
		return "split"
	default:
		return fmt.Sprintf("action(%d)", uint8(a))
	}
}

// Tracker observes the population's structural mutations so a side-array —
// per-agent data the model itself does not store, such as spatial positions
// (Positions) or program tags (internal/rogue) — stays index-aligned with
// the agent states. Every hook is invoked after the corresponding mutation
// of the state array, from the single goroutine that owns the population
// (all structural mutation is serial; see DESIGN.md §5).
type Tracker interface {
	// Attached is called once, at registration, with the population's
	// current size; the tracker initializes its side-array to n entries.
	Attached(n int)
	// Inserted reports one agent appended at index i (= new length − 1).
	Inserted(i int)
	// DeletedSwap reports a swap-deletion: the agent at index last moved
	// into slot i and the population shrank by one.
	DeletedSwap(i, last int)
	// AppliedPlan reports one Apply compaction pass through the round's
	// precomputed ApplyPlan; the tracker replays the identical stable
	// compaction (and daughter appends for ActSplit) over its own array
	// without re-walking and re-counting the actions — and, with a pool
	// attached, shards the scatter. The plan is valid only for the duration
	// of the call plus the current round.
	AppliedPlan(plan *ApplyPlan)
}

// PoolUser is an optional Tracker refinement: trackers that shard their own
// bulk work (scatter, snapshot encode) receive the population's worker pool
// when one is attached (Population.SetPool).
type PoolUser interface {
	SetPool(p *pool.Pool)
}

// Population is the mutable set of living agents. It is not safe for
// concurrent use; the simulator owns it on a single goroutine (sharded bulk
// phases — the apply-plan scatter, snapshot encode — fan out through the
// attached pool but are fully joined before any method returns).
type Population struct {
	states []agent.State
	// spare is the displaced double-buffer of the apply scatter, reused
	// across rounds (see ApplyPlanned).
	spare    []agent.State
	trackers []Tracker

	// pool, when set, shards Apply and EncodeState; nil runs them serially.
	// Purely a throughput knob: layouts and bytes are pool-invariant.
	pool *pool.Pool
	plan ApplyPlan
}

// New returns a population of n agents in the all-zero initial state, as at
// the onset of the system (paper §3: "Initially ... all variables are set to
// zero").
func New(n int) *Population {
	return &Population{states: make([]agent.State, n)}
}

// FromStates builds a population from explicit states (for tests and
// adversarial scenarios). The slice is copied.
func FromStates(states []agent.State) *Population {
	s := make([]agent.State, len(states))
	copy(s, states)
	return &Population{states: s}
}

// Attach registers a side-array tracker and initializes it to the current
// size. Trackers are notified of every subsequent structural mutation, in
// attachment order. Clone and FromStates do not carry trackers over.
func (p *Population) Attach(t Tracker) {
	p.trackers = append(p.trackers, t)
	t.Attached(len(p.states))
	if pu, ok := t.(PoolUser); ok && p.pool != nil {
		pu.SetPool(p.pool)
	}
}

// SetPool attaches a worker pool sharding the bulk phases (Apply's
// count/scatter passes, EncodeState), propagating it to every attached
// tracker that can use one. The engine calls it once at construction; nil
// (the default) keeps everything serial. Output is pool-invariant.
func (p *Population) SetPool(pl *pool.Pool) {
	p.pool = pl
	for _, t := range p.trackers {
		if pu, ok := t.(PoolUser); ok {
			pu.SetPool(pl)
		}
	}
}

// States exposes the backing agent-state array for bulk streaming on hot
// paths (the engine's compose/step loops). The slice is invalidated by any
// structural mutation (Insert, DeleteSwap, Apply).
func (p *Population) States() []agent.State { return p.states }

// Len reports the number of living agents.
func (p *Population) Len() int { return len(p.states) }

// State returns a copy of agent i's state.
func (p *Population) State(i int) agent.State { return p.states[i] }

// Ref returns a pointer to agent i's state for in-place mutation by the
// protocol step. The pointer is invalidated by any insertion or deletion.
func (p *Population) Ref(i int) *agent.State { return &p.states[i] }

// Insert adds an agent with the given state and returns its index.
func (p *Population) Insert(s agent.State) int {
	p.states = append(p.states, s)
	i := len(p.states) - 1
	for _, t := range p.trackers {
		t.Inserted(i)
	}
	return i
}

// DeleteSwap removes agent i by swapping in the last agent. Indices of other
// agents except the last are preserved.
func (p *Population) DeleteSwap(i int) {
	last := len(p.states) - 1
	p.states[i] = p.states[last]
	p.states = p.states[:last]
	for _, t := range p.trackers {
		t.DeletedSwap(i, last)
	}
}

// DeleteDescending removes the agents at the given indices, which MUST be
// sorted in strictly descending order (so swap-deletion never disturbs a
// pending index). It returns the number removed.
func (p *Population) DeleteDescending(indices []int) int {
	prev := -1
	for _, i := range indices {
		if prev != -1 && i >= prev {
			panic("population: DeleteDescending indices not strictly descending")
		}
		prev = i
		p.DeleteSwap(i)
	}
	return len(indices)
}

// Apply executes one action per agent in a single compaction pass. The
// actions slice must have exactly Len() entries describing the outcome of
// each agent's step. Daughters of splitting agents are appended after the
// pass (they take no action this round). Returns the number of births and
// deaths.
func (p *Population) Apply(actions []Action) (births, deaths int) {
	if len(actions) != len(p.states) {
		panic(fmt.Sprintf("population: %d actions for %d agents", len(actions), len(p.states)))
	}
	// Build the round's slot plan once (it also yields the birth/death
	// census, folding out the historical separate counting walk), apply it
	// to the state array, and replay it over every side-array.
	p.plan.build(actions, p.pool)
	p.states, p.spare = ApplyPlanned(&p.plan, p.states, p.spare,
		func(parent agent.State) agent.State { return parent })
	for _, t := range p.trackers {
		t.AppliedPlan(&p.plan)
	}
	return p.plan.Births(), p.plan.Deaths()
}

// ReplayApply is the serial reference form of Apply's compaction invariant:
// it stably compacts arr by dropping ActDie entries, then — because survivor
// k of the original order now sits at compacted index k — walks the actions
// again and appends one spawn(arr[k]) daughter per ActSplit, in action
// order. Daughters land after the compacted prefix and are never themselves
// walked. Trackers replaying the same actions over their own arrays
// therefore stay index-aligned with the population by construction.
//
// Apply and every tracker go through the sharded ApplyPlan, which
// reproduces this function's layout bit for bit; ReplayApply remains only
// as the semantic definition and the reference the plan and Positions tests
// compare against (DESIGN.md §10).
func ReplayApply[T any](arr []T, actions []Action, spawn func(parent T) T) []T {
	w := 0
	for i, act := range actions {
		if act == ActDie {
			continue
		}
		arr[w] = arr[i]
		w++
	}
	arr = arr[:w]
	r := 0
	for _, act := range actions {
		if act == ActDie {
			continue
		}
		if act == ActSplit {
			arr = append(arr, spawn(arr[r]))
		}
		r++
	}
	return arr
}

// minEncodeShard bounds how finely the bulk snapshot encode/decode shards.
const minEncodeShard = 16384

// agentRecordSize is the fixed snapshot payload per agent: Round u32 plus
// four single-byte fields, little-endian — the exact byte stream the
// historical per-field encoder produced, now written as one block so
// popserve's checkpoint cadence stops stalling the runner at large N.
const agentRecordSize = 8

// boolByte is the wire encoding of a boolean (Enc.Bool's 0/1).
func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// EncodeState writes the agent-state array into a snapshot section payload
// (see internal/wire). Trackers serialize their own side-arrays; the
// engine's snapshot layout keeps them adjacent so restore re-aligns them.
// The records are written into one bulk block, sharded across the attached
// pool; the byte stream is identical to the historical per-field encoding.
func (p *Population) EncodeState(e *wire.Enc) {
	n := len(p.states)
	e.U64(uint64(n))
	b := e.Block(n * agentRecordSize)
	fill := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s := &p.states[i]
			r := b[i*agentRecordSize : i*agentRecordSize+agentRecordSize]
			binary.LittleEndian.PutUint32(r[0:4], s.Round)
			r[4] = boolByte(s.Active)
			r[5] = s.Color
			r[6] = boolByte(s.Recruiting)
			r[7] = uint8(s.ToRecruit)
		}
	}
	if p.pool != nil {
		p.pool.Run(n, minEncodeShard, fill)
	} else {
		fill(0, n)
	}
}

// DecodeState replaces the agent-state array with a snapshot payload
// written by EncodeState. Trackers are deliberately NOT notified: a restore
// reinstates every side-array from the same snapshot, so alignment is
// re-established by construction rather than by replaying mutations. The
// caller (the engine's Restore) validates that every tracker's restored
// length matches.
func (p *Population) DecodeState(d *wire.Dec) error {
	n := d.Count(agentRecordSize, "agent")
	if err := d.Err(); err != nil {
		return err
	}
	raw := d.Raw(n * agentRecordSize)
	if err := d.Err(); err != nil {
		return err
	}
	states := make([]agent.State, n, n+n/2)
	// Parse sharded; boolean strictness (a non-0/1 byte is corruption, as
	// with Dec.Bool) is preserved via a per-shard flag folded after the join.
	w := 1
	if p.pool != nil {
		w = p.pool.Shards(n, minEncodeShard)
	}
	bad := make([]bool, w)
	parse := func(k int) {
		lo, hi := k*n/w, (k+1)*n/w
		for i := lo; i < hi; i++ {
			r := raw[i*agentRecordSize : i*agentRecordSize+agentRecordSize]
			if r[4] > 1 || r[6] > 1 {
				bad[k] = true
				return
			}
			states[i] = agent.State{
				Round:      binary.LittleEndian.Uint32(r[0:4]),
				Active:     r[4] == 1,
				Color:      r[5],
				Recruiting: r[6] == 1,
				ToRecruit:  int8(r[7]),
			}
		}
	}
	if p.pool != nil && w > 1 {
		p.pool.RunN(w, parse)
	} else {
		parse(0)
	}
	for _, b := range bad {
		if b {
			return fmt.Errorf("wire: snapshot bool out of range")
		}
	}
	p.states = states
	return nil
}

// CheckAligned verifies that every attached tracker able to report its
// length (a `Len() int` method) tracks exactly one entry per agent. The
// restore path calls it after all side-arrays are reinstated from a
// snapshot: a crafted or mixed-up document whose sections decode cleanly
// but disagree on the population size must fail here, not as an
// out-of-range panic mid-round.
func (p *Population) CheckAligned() error {
	for _, t := range p.trackers {
		if s, ok := t.(interface{ Len() int }); ok {
			if got := s.Len(); got != len(p.states) {
				return fmt.Errorf("population: tracker %T holds %d entries for %d agents", t, got, len(p.states))
			}
		}
	}
	return nil
}

// ForEach invokes fn with each agent's index and a copy of its state.
func (p *Population) ForEach(fn func(i int, s agent.State)) {
	for i := range p.states {
		fn(i, p.states[i])
	}
}

// Clone returns a deep copy, used by experiments that replay from a common
// prefix.
func (p *Population) Clone() *Population {
	return FromStates(p.states)
}

// ForceResize truncates or pads (with zero-state agents at round r) the
// population to exactly n agents. Experiments use it to displace the
// population for drift and recovery measurements (Lemmas 8 and 9); it is not
// part of the model.
func (p *Population) ForceResize(n int, round uint32) {
	for len(p.states) > n {
		p.DeleteSwap(len(p.states) - 1)
	}
	for len(p.states) < n {
		p.Insert(agent.State{Round: round})
	}
}
