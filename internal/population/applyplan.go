package population

import (
	"fmt"

	"popstab/internal/pool"
)

// This file implements the sharded replacement for ReplayApply's serial
// compaction walk: a two-pass prefix-sum slot plan (DESIGN.md §10).
//
// Pass A shards the action array and counts each shard's survivors and
// splits; a serial exclusive scan over the (tiny) per-shard counts then
// assigns every shard a survivor base and a daughter base. Pass B scatters:
// each shard walks its own action range once, copying survivors to
// consecutive slots from its survivor base and daughters from its daughter
// base. Because the bases are exclusive prefix sums, the resulting layout is
// EXACTLY ReplayApply's stable layout — survivors in original order, then
// all daughters in action order — for every shard count, which is what keeps
// output bit-identical across worker counts and lets golden tests pin the
// plan against the historical serial implementation byte for byte.
//
// The same plan is applied to the agent-state array and replayed by every
// tracker side-array (Tracker.AppliedPlan), so trackers stop re-walking the actions
// independently: the counting pass runs once per round, not once per array.
//
// Pass B scatters into a second buffer rather than in place: with shards
// running concurrently, shard k+1's survivor writes may land inside shard
// k's not-yet-read range. The arrays double-buffer (the displaced buffer is
// returned for reuse as next round's scratch), except in the common
// zero-death round, where survivors are already in their final slots and
// only the daughters are scattered — no copy at all.

// minApplyShard bounds how finely the apply plan shards: below ~8k actions
// per worker the pass A/B wake-ups exceed the walk. Purely a scheduling
// heuristic — the plan's layout is shard-count-invariant.
const minApplyShard = 8192

// ApplyPlan is one round's compaction plan: shard boundaries over the action
// array plus each shard's exclusive survivor and daughter slot bases. Built
// by Population.Apply and handed to every Tracker; valid until
// the next Apply on the same population.
type ApplyPlan struct {
	actions []Action
	pool    *pool.Pool
	// shards partitions actions at bounds; survBase[k] and birthBase[k] are
	// shard k's first survivor and daughter output slots.
	shards    int
	bounds    []int32
	survBase  []int32
	birthBase []int32
	// splitIdx caches the parents of each daughter in action order, built on
	// first SplitIndices call (serial-spawn consumers need it).
	splitIdx     []int32
	haveSplitIdx bool

	nSurv, births, deaths int
}

// Actions returns the action array the plan was built over.
func (pl *ApplyPlan) Actions() []Action { return pl.actions }

// Births reports the number of ActSplit entries (daughters appended).
func (pl *ApplyPlan) Births() int { return pl.births }

// Deaths reports the number of ActDie entries (agents dropped).
func (pl *ApplyPlan) Deaths() int { return pl.deaths }

// Len reports the post-apply array length: survivors plus daughters.
func (pl *ApplyPlan) Len() int { return pl.nSurv + pl.births }

// build computes the plan over actions: pass A (sharded counts) plus the
// serial exclusive scan of the per-shard totals.
func (pl *ApplyPlan) build(actions []Action, p *pool.Pool) {
	n := len(actions)
	pl.actions = actions
	pl.pool = p
	pl.haveSplitIdx = false
	w := 1
	if p != nil {
		w = p.Shards(n, minApplyShard)
	}
	pl.shards = w
	if cap(pl.bounds) < w+1 {
		pl.bounds = make([]int32, w+1)
		pl.survBase = make([]int32, w+1)
		pl.birthBase = make([]int32, w+1)
	}
	pl.bounds = pl.bounds[:w+1]
	pl.survBase = pl.survBase[:w]
	pl.birthBase = pl.birthBase[:w]
	for k := 0; k <= w; k++ {
		pl.bounds[k] = int32(k * n / w)
	}
	pl.runShards(func(k int) {
		surv, births := 0, 0
		for _, act := range actions[pl.bounds[k]:pl.bounds[k+1]] {
			if act == ActDie {
				continue
			}
			surv++
			if act == ActSplit {
				births++
			}
		}
		pl.survBase[k] = int32(surv)
		pl.birthBase[k] = int32(births)
	})
	// Exclusive scan (serial: w is tiny). Daughter bases additionally offset
	// past ALL survivors — daughters land after the compacted prefix.
	nSurv, nBirths := 0, 0
	for k := 0; k < w; k++ {
		s, b := int(pl.survBase[k]), int(pl.birthBase[k])
		pl.survBase[k] = int32(nSurv)
		pl.birthBase[k] = int32(nBirths)
		nSurv += s
		nBirths += b
	}
	for k := 0; k < w; k++ {
		pl.birthBase[k] += int32(nSurv)
	}
	pl.nSurv, pl.births, pl.deaths = nSurv, nBirths, n-nSurv
}

// runShards executes fn over every shard index, on the pool when one is
// attached and the plan has more than one shard.
func (pl *ApplyPlan) runShards(fn func(k int)) {
	if pl.pool != nil && pl.shards > 1 {
		pl.pool.RunN(pl.shards, fn)
		return
	}
	for k := 0; k < pl.shards; k++ {
		fn(k)
	}
}

// SplitIndices returns the parent index of every daughter, in the action
// order ReplayApply appends daughters. Consumers whose spawn draws from a
// serial randomness stream (Positions) walk it serially — O(births), not
// O(n) — to stage daughter values before the parallel scatter. Built once
// per plan, shared by all callers; valid until the next Apply.
func (pl *ApplyPlan) SplitIndices() []int32 {
	if pl.haveSplitIdx {
		return pl.splitIdx
	}
	if cap(pl.splitIdx) < pl.births {
		pl.splitIdx = make([]int32, pl.births+pl.births/2)
	}
	pl.splitIdx = pl.splitIdx[:pl.births]
	pl.runShards(func(k int) {
		b := int(pl.birthBase[k]) - pl.nSurv
		for i := pl.bounds[k]; i < pl.bounds[k+1]; i++ {
			if pl.actions[i] == ActSplit {
				pl.splitIdx[b] = i
				b++
			}
		}
	})
	pl.haveSplitIdx = true
	return pl.splitIdx
}

// ApplyPlanned applies the plan to arr, producing ReplayApply's exact layout:
// survivors stably compacted, then one spawn(parent) daughter per ActSplit in
// action order. spawn must be a pure function — shards call it concurrently,
// in shard order rather than action order (side-arrays whose spawn consumes
// serial randomness stage daughters first and use ApplyPlannedStaged).
//
// spare is an optional displaced buffer from a previous call (any length;
// only its capacity matters). Returns the new array and the buffer the
// caller should keep as next round's spare. In a zero-death round with
// enough capacity, arr is extended in place and no element is copied.
func ApplyPlanned[T any](pl *ApplyPlan, arr, spare []T, spawn func(parent T) T) (out, newSpare []T) {
	n := len(pl.actions)
	if len(arr) != n {
		panic(fmt.Sprintf("population: plan over %d actions applied to %d elements", n, len(arr)))
	}
	need := pl.nSurv + pl.births
	if pl.deaths == 0 && cap(arr) >= need {
		out = arr[:need]
		pl.runShards(func(k int) {
			b := int(pl.birthBase[k])
			for i := int(pl.bounds[k]); i < int(pl.bounds[k+1]); i++ {
				if pl.actions[i] == ActSplit {
					out[b] = spawn(out[i])
					b++
				}
			}
		})
		return out, spare
	}
	if cap(spare) >= need {
		out = spare[:need]
	} else {
		out = make([]T, need, need+need/2)
	}
	pl.runShards(func(k int) {
		s, b := int(pl.survBase[k]), int(pl.birthBase[k])
		for i := int(pl.bounds[k]); i < int(pl.bounds[k+1]); i++ {
			act := pl.actions[i]
			if act == ActDie {
				continue
			}
			v := arr[i]
			out[s] = v
			s++
			if act == ActSplit {
				out[b] = spawn(v)
				b++
			}
		}
	})
	return out, arr[:0]
}

// ApplyPlannedStaged is ApplyPlanned for side-arrays whose daughter values
// were staged up front (in action order, one per ActSplit — see
// SplitIndices): daughter slot b receives daughters[b]. Positions uses it so
// its randomness-consuming Spawn runs serially, in the exact draw order of
// the historical serial implementation, while the O(n) compaction still
// shards.
func ApplyPlannedStaged[T any](pl *ApplyPlan, arr, spare, daughters []T) (out, newSpare []T) {
	n := len(pl.actions)
	if len(arr) != n {
		panic(fmt.Sprintf("population: plan over %d actions applied to %d elements", n, len(arr)))
	}
	if len(daughters) != pl.births {
		panic(fmt.Sprintf("population: %d staged daughters for %d splits", len(daughters), pl.births))
	}
	need := pl.nSurv + pl.births
	if pl.deaths == 0 && cap(arr) >= need {
		out = arr[:need]
		pl.runShards(func(k int) {
			b := int(pl.birthBase[k])
			for i := int(pl.bounds[k]); i < int(pl.bounds[k+1]); i++ {
				if pl.actions[i] == ActSplit {
					out[b] = daughters[b-pl.nSurv]
					b++
				}
			}
		})
		return out, spare
	}
	if cap(spare) >= need {
		out = spare[:need]
	} else {
		out = make([]T, need, need+need/2)
	}
	pl.runShards(func(k int) {
		s, b := int(pl.survBase[k]), int(pl.birthBase[k])
		for i := int(pl.bounds[k]); i < int(pl.bounds[k+1]); i++ {
			act := pl.actions[i]
			if act == ActDie {
				continue
			}
			out[s] = arr[i]
			s++
			if act == ActSplit {
				out[b] = daughters[b-pl.nSurv]
				b++
			}
		}
	})
	return out, arr[:0]
}
