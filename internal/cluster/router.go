// Package cluster is the federation layer: a coordinator that registers
// remote popserve workers, routes session submissions to them by
// rendezvous affinity, proxies per-session control calls to the owning
// worker, migrates sessions between workers over the wire-codec snapshot
// path, and aggregates the fleet's dedupe cache into a content-addressed
// result store keyed by Spec.Hash. The coordinator speaks the same /v1
// contract as a worker (internal/serve), so clients cannot tell one
// popserve from a fleet. See DESIGN.md §11.
package cluster

import "hash/fnv"

// Candidate is the routing view of one live worker at pick time.
type Candidate struct {
	// ID is the coordinator-assigned worker ID.
	ID string
	// SlotsInUse / Slots describe the worker's step-pool occupancy, from
	// its last heartbeat.
	SlotsInUse int
	Slots      int
	// Sessions is the worker's resident session count.
	Sessions int
	// Ready mirrors the worker's last-reported readiness.
	Ready bool
}

// affinity decides which worker receives a new submission: an index into
// cands, or -1 when cands is empty. It routes by rendezvous
// (highest-random-weight) hashing of (workerID, specHash): every worker
// scores the hash, the top score wins. The same spec always lands on the
// same live worker, so a dedupe hit finds the worker already holding the
// result, concurrent identical submissions collapse in one worker's cache
// instead of running twice on two hosts, and membership changes only remap
// the specs whose top scorer changed — no ring to rebalance. specHash is
// the submission's canonical Spec.Hash; without one (snapshot restores,
// whose state is not content-addressed) the least-loaded worker wins. cands
// may arrive in any order and change between calls.
func affinity(cands []Candidate, specHash string) int {
	if specHash == "" {
		return leastLoaded(cands)
	}
	best, bestScore := -1, uint64(0)
	for i, c := range cands {
		s := rendezvousScore(c.ID, specHash)
		if best == -1 || s > bestScore || (s == bestScore && c.ID < cands[best].ID) {
			best, bestScore = i, s
		}
	}
	return best
}

// leastLoaded picks the worker with the lowest step-pool occupancy
// (SlotsInUse/Slots), breaking ties by fewest resident sessions, or -1 when
// cands is empty. Ready workers always beat unready ones.
func leastLoaded(cands []Candidate) int {
	best := -1
	for i, c := range cands {
		if best == -1 || lessLoaded(c, cands[best]) {
			best = i
		}
	}
	return best
}

// lessLoaded orders candidates: ready first, then slot occupancy, then
// session count, then ID for determinism.
func lessLoaded(a, b Candidate) bool {
	if a.Ready != b.Ready {
		return a.Ready
	}
	if ao, bo := occupancy(a), occupancy(b); ao != bo {
		return ao < bo
	}
	if a.Sessions != b.Sessions {
		return a.Sessions < b.Sessions
	}
	return a.ID < b.ID
}

// occupancy is the candidate's slot saturation in [0,1]; slotless
// candidates (Slots is 0 before the first heartbeat carries pool sizes)
// count as saturated.
func occupancy(c Candidate) float64 {
	if c.Slots <= 0 {
		return 1
	}
	return float64(c.SlotsInUse) / float64(c.Slots)
}

// rendezvousScore is the HRW weight of (worker, hash). The raw FNV sum is
// pushed through a 64-bit avalanche finalizer: FNV alone barely mixes its
// trailing bytes, so without it the workerID prefix dominates the score and
// one worker out-bids the fleet for every hash.
func rendezvousScore(workerID, specHash string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(workerID))
	h.Write([]byte{0})
	h.Write([]byte(specHash))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
