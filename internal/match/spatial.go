package match

import (
	"errors"
	"fmt"
	"math"
	"time"

	"popstab/internal/pool"
	"popstab/internal/population"
	"popstab/internal/prng"
	"popstab/internal/wire"
)

// This file is the shared chassis of every spatial Matcher (Torus, Ring,
// Grid, SmallWorld): a position side-array bound through population.Tracker
// hooks plus one sharded nearest-available matching pipeline. The concrete
// matchers differ only in their geometry (bucket layout + metric) and their
// placement closures; roughly 100 LoC each buys a new topology.
//
// # The sharded matching pipeline
//
// Nearest-available matching is a greedy sequential algorithm: agents are
// visited in a random order and each pairs with its nearest still-unmatched
// candidate, so the outcome of a visit depends on every earlier visit. The
// pipeline keeps the exact pairings of the historical serial implementation
// while sharding every O(n) stage but the walk itself:
//
//  1. bucket (sharded): cellIdx[i] = cell of agent i — pure float math;
//  2. scatter (sharded): a stable counting sort builds the CSR cell index
//     (cellStart/cellAgents) with a count→scan→scatter idiom: per-shard
//     histograms over agent ranges, an exclusive scan over (cell, shard),
//     and a scatter into precomputed disjoint slots. Within a cell, slots are laid out shard-major and
//     shards cover ascending agent ranges, so the layout — ascending agent
//     index within each cell — is bit-identical to the historical serial
//     cursor scatter at every shard count. The scatter leaves order[i] and
//     cellIdx[i] both = slot of agent i; cellIdx keeps that map for the
//     rewrite hook once order is shuffled;
//  3. candidates (sharded): for every CSR slot k (an agent's position in
//     the cell-sorted cellAgents/posByCell layout), scan the neighborhood
//     cells and keep the candK nearest candidates VISITED AFTER k, sorted
//     by (distance, scan order), as neighbor SLOTS in cand[k*candK:] —
//     slots are visited in order, so the candidate rows are written
//     sequentially, and each shard owns its slots (no shared writes);
//  4. greedy walk (serial), in slot space: visit agents in a random order
//     drawn from the matcher's stream; each unmatched agent takes the
//     first unmatched entry of its precomputed candidate list, recording
//     partners in the slot-indexed mate array. Because the list is the
//     prefix of the stable ordering of every neighbor that can still be
//     unmatched (see "Visit-order pruning"), "first unmatched stored
//     candidate" IS the nearest unmatched candidate — unless all stored
//     entries are taken while further later-visited candidates exist
//     (candMore), in which case an exact fallback rescan of the whole
//     neighborhood (same metric, same tie-breaking) recovers the answer.
//     The walk is inherently sequential and stays serial: DESIGN.md §12
//     records why parallelizing it did not pay. A final sharded pass
//     translates mate back to agent indices in Pairing.Nbr, writing every
//     entry (no separate Unmatched fill).
//
// Phase 4's visit order is drawn between phases 2 and 3, serially: the
// shuffle, then one pass writing mate[order[t]] = -(t+1). Until the walk
// pairs a slot, mate holds its visit time that way, so "j is visited after
// k" is mate[j] < mate[k], while the walk, the rescan and the output pass
// still read mate < 0 as unmatched. Both steps are timed as the walk's.
//
// # Visit-order pruning
//
// Take slot k and a neighbor j visited earlier, t(j) < t(k). The torus,
// grid and ring neighborhoods are symmetric — j ∈ N(k) ⇔ k ∈ N(j), also
// for side < 3, where a neighborhood scans some cells more than once — so
// k is a neighbor of j. k is still unmatched at its own visit and matches
// are permanent, so k was unmatched at t(j): if j was unmatched then, it
// had an unmatched neighbor and paired, through its stored prefix or the
// exact rescan. Every earlier-visited neighbor is therefore matched when k
// is visited, and dropping them from k's row leaves "the first unmatched
// stored candidate" unchanged. candMore accordingly counts the
// later-visited neighbors only, which is what makes the rescan rarer;
// DistEvals still counts every neighbor, since each distance is computed
// before the visit-time test.
//
// The argument needs symmetric candidate sets, and a rewired SmallWorld
// agent's are not: a rewired j proposes to random agents, so an
// earlier-visited ring neighbor of k may be left unmatched while k is
// unvisited. So while a rewrite hook is installed, rows keep every
// neighbor, earlier-visited or not.
//
// # Tie-breaking rule
//
// Candidates at exactly equal distance are ordered by scan position: cells
// are visited in the geometry's fixed neighborhood order and agents within a
// cell in ascending index order (ascending slot order, since the CSR layout
// is stable), and the rank selection of phase 3 (like the fallback rescan's
// strict `<` minimum) lets the earliest encounter win. This is the same rule
// the historical serial loop applied, which is what makes the pipeline's
// output bit-identical to it — and, since phases 1–3 are deterministic
// functions with shard-invariant layouts and phase 4 is serial,
// bit-identical across every worker count.
//
// The pipeline itself consumes randomness only for the visit permutation.
// The scatter leaves order[i] = slot of agent i, and the visit-order step
// shuffles that buffer with src.ShuffleInt32, whose variates are those of
// shuffling an identity-filled permutation of the agents: the swaps depend
// only on positions and variates, so order[t] is the slot of the agent that
// permutation would visit t-th. Drawing it before the candidate phase
// rather than after leaves the variates unchanged: nothing else in a sample
// draws from src (prematch may not, and rewrite uses counter streams).
// Matchers that need per-agent coins inside the sharded candidate phase
// (SmallWorld's rewiring) draw them from counter-based streams keyed on
// (matcher key, sample counter, agent index) — see prng.SeedCounter — so
// shard boundaries cannot perturb them.

// candK is the number of nearest candidates precomputed per slot. Larger
// values make the exact fallback rescan rarer but cost memory bandwidth in
// the sharded candidate phase. The rescan runs inside the serial greedy
// walk, and only for an agent with more than candK later-visited neighbors
// whose stored ones are all taken: at ~1 agent per cell that is a handful
// of agents per 2¹⁸, which keeps the rescan time negligible against the
// sharded phases.
const candK = 8

// maxNbrCells bounds a geometry's neighborhood size (3×3 cells in 2-D,
// 3 cells in 1-D).
const maxNbrCells = 9

// minSpatialShard bounds how finely the sharded phases split: below ~1k
// agents per worker the scheduling overhead exceeds the per-agent work.
// Purely a scheduling heuristic — output is worker-count-invariant.
const minSpatialShard = 1024

// geometry is the seam between the shared pipeline and a concrete
// topology: bucket layout, neighborhood scan order, and metric. G's prepare
// returns G, so the pipeline holds geometries by value and never boxes them
// in an interface. The calls are not monomorphized, though: Go stencils
// generic code per GC shape, not per type, and torusGeom and gridGeom share
// the shape struct{side int}, so the pipeline reaches their methods through
// the instantiation dictionary — dist2 is an indirect call that is not
// inlined (torusGeom.dist2 shows as its own frame in a CPU profile). The
// candidate scan therefore gathers distances with dist2Bits, one call per
// chunk of up to distChunk points, inside which the metric inlines: on
// crowded inputs an agent scans hundreds of points. On the uniform torus it
// scans about nine, and calling TorusDist2 directly in place of dist2
// measured no gain there.
type geometry[G any] interface {
	// prepare returns the geometry instance for a population of n agents
	// (bucket-grid resolution derived from n).
	prepare(n int) G
	// numCells reports the bucket count of the prepared grid.
	numCells() int
	// cell maps a position to its bucket index.
	cell(pt population.Point) int32
	// neighborhood appends the buckets adjacent to c (including c) to buf
	// in the fixed scan order that defines candidate tie-breaking.
	neighborhood(c int32, buf []int32) []int32
	// dist2 is the squared distance between two positions in this metric.
	dist2(a, b population.Point) float64
	// dist2Bits writes math.Float64bits(dist2(p, pts[i])) to out[i] for
	// every i: the candidate scan's batched form of dist2, one call per
	// chunk of points, inside which the metric inlines.
	dist2Bits(p population.Point, pts []population.Point, out []uint64)
	// patch draws a position uniformly within distance r of center under
	// this geometry (wrapping or reflecting as the topology demands),
	// consuming src. r ≤ 0 returns center exactly.
	patch(src *prng.Source, center population.Point, r float64) population.Point
}

// spatial is the shared state of a spatial matcher: the bound position
// side-array, the worker pool, and the pipeline's reusable buffers.
// Concrete matchers embed it and call bind from their Bind.
type spatial[G geometry[G]] struct {
	geo G
	// pool, when set (SetPool), runs the sharded phases on the engine's
	// persistent worker pool; nil (standalone use) is the serial pool, and
	// every phase runs inline. Same output either way.
	pool *pool.Pool

	pos *population.Positions
	src *prng.Source
	// probeSrc feeds SampleProbe so measurement probes never perturb the
	// placement stream (src) or the engine's matching stream.
	probeSrc *prng.Source

	// rewrite, when non-nil, may replace agent i's candidate list in the
	// sharded candidate phase (SmallWorld rewiring): it writes up to
	// len(dst) candidate agent indices into dst and returns how many, or -1
	// to keep the geometric candidates; the pipeline maps the agents to
	// their slots. It runs concurrently from shards and must be a pure
	// function of (i, n, call) — per-agent randomness comes from
	// counter-based streams, never from a shared Source. While it is
	// installed, geometric rows are not pruned by visit order (see the file
	// header).
	rewrite func(i, n int, call uint64, dst []int32) int
	// prematch, when non-nil, runs serially at the top of every sample,
	// before the sharded phases — the hook SmallWorld uses to precompute
	// per-round state the concurrent rewrite reads (the rewire-force target
	// list). It must not consume randomness.
	prematch func(n int)
	// calls counts SampleMatch invocations (probe samples count
	// separately, with probeBit set) — the per-round word of the rewrite
	// hook's counter streams.
	calls, probeCalls uint64

	// stats accumulates the per-phase pipeline counters (PhaseReporter).
	stats PipelineStats

	// Pipeline buffers, reused across rounds (1.5× growth slack). A slot
	// is an index into the CSR layout (cellAgents/posByCell).
	cellIdx    []int32            // agent -> bucket; agent -> slot after the scatter
	cellStart  []int32            // CSR: bucket c holds slots [cellStart[c], cellStart[c+1])
	cellAgents []int32            // slot -> agent, ascending agent index within a cell
	posByCell  []population.Point // slot -> position — sequential reads in the candidate scan
	cnt        []int32            // scatter histograms, one row of ncells per shard
	cand       []int32            // candK nearest candidate slots per slot
	candN      []uint8            // stored candidate count per slot, | candMore
	mate       []int32            // slot -> partner slot in the walk; -(t+1) while unmatched, t its visit time
	order      []int32            // agent -> slot after the scatter; visit order of slots after the shuffle
	candShards []candShard        // one candidate-phase scratch per shard (pool.Shards)
}

// candShard is one candidate shard's scratch. It lives in the matcher
// because the selector and the neighborhood buffer reach the geometry
// through its instantiation dictionary: as shard locals they would escape
// to the heap on every sample.
type candShard struct {
	sel  selector
	nbuf [maxNbrCells]int32
	// dists is the shard's distance evaluations in the last sample. The
	// shard counts in a local and stores once: a per-agent add here would
	// share a cache line with the next shard's selector.
	dists uint64
}

// probeBit distinguishes probe-sample rewrite streams from match-sample
// streams so probing can never replay or perturb simulation randomness.
const probeBit = uint64(1) << 63

// bind attaches the position side-array (placement via the given closures)
// and captures the matcher streams. Call exactly once, before the first
// SampleMatch.
func (s *spatial[G]) bind(pop *population.Population, src *prng.Source, place func() population.Point, spawn func(population.Point) population.Point) {
	if s.pos != nil {
		panic("match: spatial matcher bound twice")
	}
	s.src = src
	s.probeSrc = src.Split()
	s.pos = &population.Positions{Place: place, Spawn: spawn}
	pop.Attach(s.pos)
}

// Positions implements Space: the bound position side-array (nil before
// Bind).
func (s *spatial[G]) Positions() *population.Positions { return s.pos }

// Dist2 implements Space with the geometry's metric. The metric is position-
// only (bucket resolution does not enter it), so it is valid before the
// first SampleMatch.
func (s *spatial[G]) Dist2(a, b population.Point) float64 { return s.geo.dist2(a, b) }

// PatchPoint implements Space: a uniform draw within distance r of center
// under the geometry, from the caller's stream.
func (s *spatial[G]) PatchPoint(center population.Point, r float64, src *prng.Source) population.Point {
	return s.geo.patch(src, center, r)
}

// SetPool implements PoolSetter: the sharded phases run on the engine's
// parked workers. Purely a throughput setting — output is unchanged.
func (s *spatial[G]) SetPool(p *pool.Pool) { s.pool = p }

// PipelineStats implements PhaseReporter: the cumulative per-phase counters
// of the matching pipeline since construction.
func (s *spatial[G]) PipelineStats() PipelineStats { return s.stats }

// SampleMatch implements the Matcher sampling method with sharded
// nearest-available matching over the bound positions, drawing the visit
// order from src.
func (s *spatial[G]) SampleMatch(pop *population.Population, src *prng.Source, p *Pairing) {
	if s.pos == nil {
		panic("match: spatial matcher used before Bind")
	}
	s.calls++
	s.sample(pop.Len(), src, p, s.calls)
}

// SampleProbe draws one matching from a dedicated probe stream split off at
// Bind time. Measurement probes (e.g. color-agreement sampling between
// rounds) use it so they perturb neither the simulation's matching stream
// nor the placement stream: a probed and an unprobed run of the same
// configuration stay on identical trajectories.
func (s *spatial[G]) SampleProbe(pop *population.Population, p *Pairing) {
	if s.pos == nil {
		panic("match: spatial matcher used before Bind")
	}
	s.probeCalls++
	s.sample(pop.Len(), s.probeSrc, p, s.probeCalls|probeBit)
}

// EncodeState implements Stateful: the placement and probe streams, the
// sample counters keying the rewrite hook's counter streams, and the
// position side-array (live positions plus any queued placements). The
// geometry itself and the matcher key are construction-time wiring,
// re-derived identically when the restored matcher is rebuilt and rebound
// from the same configuration and seed. Pipeline statistics are
// deliberately not state: they are observability.
func (s *spatial[G]) EncodeState(e *wire.Enc) {
	for _, w := range s.src.State() {
		e.U64(w)
	}
	for _, w := range s.probeSrc.State() {
		e.U64(w)
	}
	e.U64(s.calls)
	e.U64(s.probeCalls)
	s.pos.EncodeState(e)
}

// DecodeState implements Stateful; the matcher must already be bound. Every
// restored position, live or still queued, must lie on the closed unit
// square, the domain every geometry's placement, spawn and patch seams map
// into (closed because wrap can round up to exactly 1): a position off it is
// not a state of the model, and the bucketing would index outside the grid.
func (s *spatial[G]) DecodeState(d *wire.Dec) error {
	if s.pos == nil {
		return errDecodeUnbound
	}
	var st, pst [4]uint64
	for i := range st {
		st[i] = d.U64()
	}
	for i := range pst {
		pst[i] = d.U64()
	}
	calls := d.U64()
	probeCalls := d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	if err := s.pos.DecodeState(d); err != nil {
		return err
	}
	for i, pt := range s.pos.Slice() {
		if !onSquare(pt) {
			return fmt.Errorf("match: snapshot position %d at (%v, %v) is off the unit square", i, pt.X, pt.Y)
		}
	}
	for i, pt := range s.pos.Queued() {
		if !onSquare(pt) {
			return fmt.Errorf("match: snapshot queued placement %d at (%v, %v) is off the unit square", i, pt.X, pt.Y)
		}
	}
	s.src.SetState(st)
	s.probeSrc.SetState(pst)
	s.calls = calls
	s.probeCalls = probeCalls
	return nil
}

// onSquare reports whether pt lies on the closed unit square; NaN
// coordinates fail every comparison and so are off it.
func onSquare(pt population.Point) bool {
	return pt.X >= 0 && pt.X <= 1 && pt.Y >= 0 && pt.Y <= 1
}

// errDecodeUnbound reports DecodeState on an unbound matcher.
var errDecodeUnbound = errors.New("match: DecodeState before Bind")

// ensure sizes the pipeline buffers for n agents over ncells buckets,
// growing with 1.5× slack so a steadily growing population does not
// reallocate every round. (The scatter histograms size themselves: their
// footprint depends on the shard count too.)
func (s *spatial[G]) ensure(n, ncells int) {
	if cap(s.cellIdx) < n {
		c := n + n/2
		s.cellIdx = make([]int32, c)
		s.cellAgents = make([]int32, c)
		s.posByCell = make([]population.Point, c)
		s.cand = make([]int32, candK*c)
		s.candN = make([]uint8, c)
		s.mate = make([]int32, c)
		s.order = make([]int32, c)
	}
	if cap(s.cellStart) < ncells+1 {
		s.cellStart = make([]int32, ncells+1+ncells/2)
	}
	s.cellIdx = s.cellIdx[:n]
	s.cellAgents = s.cellAgents[:n]
	s.posByCell = s.posByCell[:n]
	s.cand = s.cand[:candK*n]
	s.candN = s.candN[:n]
	s.mate = s.mate[:n]
	s.order = s.order[:n]
	s.cellStart = s.cellStart[:ncells+1]
}

// sample runs the four-phase pipeline documented at the top of this file.
func (s *spatial[G]) sample(n int, src *prng.Source, p *Pairing, call uint64) {
	if n < 2 {
		p.Reset(n)
		return
	}
	p.resize(n) // the output pass writes every entry
	if s.prematch != nil {
		s.prematch(n)
	}
	pos := s.pos.Slice()
	g := s.geo.prepare(n)
	ncells := g.numCells()
	s.ensure(n, ncells)
	s.stats.Samples++

	// Phase 1 (sharded): bucket every agent.
	t0 := time.Now()
	s.pool.Run(n, minSpatialShard, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s.cellIdx[i] = g.cell(pos[i])
		}
	})
	s.stats.BucketNS += uint64(time.Since(t0))

	// Phase 2 (sharded): stable counting-sort scatter into the CSR index;
	// it also leaves order[i] = cellIdx[i] = slot of agent i.
	t0 = time.Now()
	s.scatter(pos, n, ncells)
	s.stats.ScatterNS += uint64(time.Since(t0))

	// Phase 4's visit order (serial, timed as the walk's). Shuffling the
	// agent -> slot map with the variates of an identity-filled shuffle
	// turns it into the visit order of slots (see the file header), so the
	// walk is bit-identical to the historical agent-space form. mate then
	// records each slot's visit time as -(t+1) for phase 3's pruning.
	t0 = time.Now()
	src.ShuffleInt32(s.order)
	mate := s.mate
	for t, k := range s.order {
		mate[k] = int32(-1 - t)
	}
	walkNS := time.Since(t0)

	// Phase 3 (sharded): per-slot candK-nearest candidate selection,
	// iterated in CSR order so slots of the same cell reuse each other's
	// neighborhood segments, scanning the cell-sorted position copy
	// (posByCell) in contiguous segments and writing candidate rows
	// sequentially. The scan ORDER over candidates is the per-agent one —
	// segments are maximal runs of consecutive cell ids in the geometry's
	// neighborhood order — so tie-breaking is unchanged. Rows keep only the
	// neighbors visited after their slot unless a rewrite hook is installed
	// (see "Visit-order pruning"). The shards are pool.Run's partition, each
	// with its own reused scratch.
	t0 = time.Now()
	rewrite := s.rewrite
	w := s.pool.Shards(n, minSpatialShard)
	if len(s.candShards) < w {
		s.candShards = make([]candShard, w)
	}
	s.pool.RunN(w, func(sh int) {
		lo, hi := sh*n/w, (sh+1)*n/w
		scr := &s.candShards[sh]
		dists := 0
		var segs [maxNbrCells][2]int32
		// Locate the cell containing CSR slot lo.
		c := int32(0)
		{
			hiC, loC := int32(ncells), int32(0)
			for loC < hiC {
				mid := (loC + hiC) / 2
				if s.cellStart[mid+1] > int32(lo) {
					hiC = mid
				} else {
					loC = mid + 1
				}
			}
			c = loC
		}
		nseg := -1 // neighborhood segments of cell c not yet computed
		for k := lo; k < hi; k++ {
			for int32(k) >= s.cellStart[c+1] {
				c++
				nseg = -1
			}
			tk := mate[k] // admit the neighbors visited after k
			if rewrite != nil {
				row := s.cand[k*candK : (k+1)*candK]
				if kn := rewrite(int(s.cellAgents[k]), n, call, row); kn >= 0 {
					for x, a := range row[:kn] {
						row[x] = s.cellIdx[a] // agent -> slot since the scatter
					}
					s.candN[k] = uint8(kn)
					continue
				}
				tk = 0 // admit every neighbor: rewired rows are not symmetric
			}
			if nseg < 0 {
				cells := g.neighborhood(c, scr.nbuf[:0])
				nseg = 0
				for si := 0; si < len(cells); {
					sj := si + 1
					for sj < len(cells) && cells[sj] == cells[sj-1]+1 {
						sj++
					}
					segs[nseg] = [2]int32{s.cellStart[cells[si]], s.cellStart[cells[sj-1]+1]}
					nseg++
					si = sj
				}
			}
			dists += s.nearestCandidates(g, &scr.sel, k, segs[:nseg], tk)
		}
		scr.dists = uint64(dists)
	})
	for _, scr := range s.candShards[:w] {
		s.stats.DistEvals += scr.dists
	}
	s.stats.CandNS += uint64(time.Since(t0))

	// Phase 4: random-order greedy matching in slot space; a sharded pass
	// then writes every agent's partner into the pairing.
	t0 = time.Now()
	s.walk(g)
	cellAgents, nbr := s.cellAgents, p.Nbr
	s.pool.Run(n, minSpatialShard, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			j := Unmatched
			if m := mate[k]; m >= 0 {
				j = cellAgents[m]
			}
			nbr[cellAgents[k]] = j
		}
	})
	s.stats.SerialWalks++
	s.stats.WalkNS += uint64(walkNS + time.Since(t0))
}

// maxScatterShards caps the scatter fan-out: the count→scan→scatter passes
// keep one histogram row of ncells counters per shard, so fan-out costs
// shards×ncells int32s of memory and zeroing bandwidth, and past ~8 shards
// the passes are memory-bound anyway. maxScatterCnt additionally bounds the
// total histogram footprint — cells scale like n, so giant populations
// degrade toward fewer shards instead of allocating multi-hundred-MB count
// arrays.
const (
	maxScatterShards = 8
	maxScatterCnt    = 1 << 25 // total histogram entries (int32): 128 MiB ceiling
)

// scatter is phase 2: it builds cellStart/cellAgents/posByCell — the stable
// counting-sort CSR layout, ascending agent index within each cell — and
// order (agent -> slot) with a sharded count→scan→scatter; pass 4 also
// overwrites cellIdx[i], dead once read, with the same slot:
//
//	pass 1 (sharded over agent ranges): per-shard histograms cnt[k][c];
//	pass 2 (sharded over cell ranges): down-column exclusive scan turning
//	       cnt[k][c] into "agents of cell c in shards before k", cell
//	       totals into cellStart[c+1], and per-shard totals;
//	       a tiny serial exclusive scan over the per-shard totals;
//	pass 3 (sharded over cell ranges): prefix sum finishing cellStart;
//	pass 4 (sharded over agent ranges): each shard scatters its own agents
//	       into cellStart[c] + cnt[k][c]++ — precomputed disjoint slots.
//
// Within a cell, slots are laid out shard-major and shards cover ascending
// agent ranges, so the layout is bit-identical to the historical serial
// cursor scatter at every shard count; with one shard the passes ARE that
// serial scatter (histogram, prefix, cursor walk), inline on the caller.
func (s *spatial[G]) scatter(pos []population.Point, n, ncells int) {
	w := min(s.pool.Shards(n, minSpatialShard), maxScatterShards)
	if ncells > 0 {
		w = min(w, maxScatterCnt/ncells)
	}
	w = max(w, 1)
	if cap(s.cnt) < w*ncells {
		s.cnt = make([]int32, w*ncells)
	}
	cnt := s.cnt[:w*ncells]
	var ab, cb [maxScatterShards + 1]int
	for k := 0; k <= w; k++ {
		ab[k] = k * n / w
		cb[k] = k * ncells / w
	}

	// Pass 1: per-shard histograms (each shard zeroes its own row).
	s.pool.RunN(w, func(k int) {
		row := cnt[k*ncells : (k+1)*ncells]
		for i := range row {
			row[i] = 0
		}
		for _, c := range s.cellIdx[ab[k]:ab[k+1]] {
			row[c]++
		}
	})

	// Pass 2: per-cell down-column exclusive scan; cell totals land in
	// cellStart[c+1]; per-shard sums fold out.
	start := s.cellStart
	var shardSum [maxScatterShards]int32
	s.pool.RunN(w, func(k int) {
		sum := int32(0)
		for c := cb[k]; c < cb[k+1]; c++ {
			t := int32(0)
			for r := 0; r < w; r++ {
				at := r*ncells + c
				v := cnt[at]
				cnt[at] = t
				t += v
			}
			start[c+1] = t
			sum += t
		}
		shardSum[k] = sum
	})
	base := int32(0)
	for k := 0; k < w; k++ {
		shardSum[k], base = base, base+shardSum[k]
	}

	// Pass 3: finish the prefix sum over cell totals.
	start[0] = 0
	s.pool.RunN(w, func(k int) {
		run := shardSum[k]
		for c := cb[k]; c < cb[k+1]; c++ {
			run += start[c+1]
			start[c+1] = run
		}
	})

	// Pass 4: scatter into precomputed disjoint slots.
	cellIdx, cellAgents, posByCell, order := s.cellIdx, s.cellAgents, s.posByCell, s.order
	s.pool.RunN(w, func(k int) {
		row := cnt[k*ncells:]
		for i := ab[k]; i < ab[k+1]; i++ {
			c := cellIdx[i]
			at := start[c] + row[c]
			row[c]++
			cellAgents[at] = int32(i)
			posByCell[at] = pos[i]
			order[i] = at
			cellIdx[i] = at
		}
	})
}

// walk is phase 4's serial greedy loop over the shuffled slot order: each
// unmatched slot takes the first unmatched stored candidate, or runs the
// exact fallback rescan when the stored prefix is exhausted but the
// neighborhood holds more.
func (s *spatial[G]) walk(g G) {
	var nbuf [maxNbrCells]int32
	mate, cand, candN := s.mate, s.cand, s.candN
	for _, k := range s.order {
		if mate[k] >= 0 {
			continue
		}
		cn := candN[k]
		best := int32(-1)
		for _, j := range cand[int(k)*candK:][:cn&^candMore] {
			if mate[j] < 0 {
				best = j
				break
			}
		}
		if best < 0 && cn&candMore != 0 {
			best = s.rescan(g, k, nbuf[:0])
			s.stats.Rescans++
		}
		if best >= 0 {
			mate[k] = best
			mate[best] = k
		}
	}
}

// rescan is the exact nearest-unmatched search over slot k's neighborhood
// — the historical serial algorithm in slot space, used only when the
// precomputed candidate prefix is exhausted. It scans every neighbor, not
// only the later-visited ones: earlier-visited neighbors are matched and
// skipped. Slots within a cell ascend with agent index, so the strict `<`
// minimum breaks ties as before.
func (s *spatial[G]) rescan(g G, k int32, nbuf []int32) int32 {
	best := int32(-1)
	bestD := math.Inf(1)
	pk := s.posByCell[k]
	for _, c := range g.neighborhood(g.cell(pk), nbuf) {
		for j := s.cellStart[c]; j < s.cellStart[c+1]; j++ {
			if j == k || s.mate[j] >= 0 {
				continue
			}
			if d := g.dist2(pk, s.posByCell[j]); d < bestD {
				bestD = d
				best = j
			}
		}
	}
	return best
}

// candMore is the candN bit saying the neighborhood holds more admitted
// candidates — later-visited ones, or every one while a rewrite hook is
// installed — than the stored ones (the walk's exact-rescan trigger); the
// low bits hold the stored count.
const candMore = 0x80

// nearestCandidates fills slot selfK's candidate row with its candK nearest
// admitted neighbor slots in (distance, scan order) — the prefix of the
// stable ordering of the admitted ones. A neighbor j is admitted when
// mate[j] < tk: tk = mate[selfK] admits the neighbors visited after selfK,
// and tk = 0 admits every one. segs are [start, end) slot ranges covering
// the neighborhood in exact scan order; selfK itself is skipped wherever it
// appears. Distances are gathered a chunk at a time by one dist2Bits call,
// and a point at or beyond the current candK-th best distance is dropped
// before it reaches the selector's batch, which keeps crowded neighborhoods
// linear. The visit-time test does not branch: every point under the bound
// is written to the batch, and only an admitted one advances it — a branch
// there would be a coin flip per point. sel is the calling shard's scratch
// selector. It returns how many distances it evaluated: the neighborhood's
// points other than selfK.
//
// Until candK points are kept the bound is MaxInt64 and every admitted
// point enters, so a row with fewer than candK entries holds every admitted
// neighbor; only a full row needs admitsMore for its candMore bit.
func (s *spatial[G]) nearestCandidates(g G, sel *selector, selfK int, segs [][2]int32, tk int32) int {
	sel.kept, sel.n, sel.bound = 0, 0, math.MaxInt64
	pi := s.posByCell[selfK]
	self := int32(selfK)
	total := 0
	for _, sg := range segs {
		for lo := sg[0]; lo < sg[1]; lo += distChunk {
			hi := min(lo+distChunk, sg[1])
			ds := sel.dist[:hi-lo]
			g.dist2Bits(pi, s.posByCell[lo:hi], ds)
			total += int(hi - lo)
			if lo <= self && self < hi {
				ds[self-lo] = math.MaxInt64 // never admitted: bound ≤ MaxInt64
				total--
			}
			ts := s.mate[lo:hi]
			ts = ts[:len(ds)] // one length, so ts[x] needs no bounds check
			for x, d := range ds {
				if d >= sel.bound {
					continue
				}
				at := sel.n & (selCap - 1)
				sel.d[at], sel.slot[at] = d, lo+int32(x)
				// Admitted when mate[j] < tk, the sign bit of the
				// difference: both lie in [-n, 0], so it cannot overflow.
				if sel.n += int(uint32(ts[x]-tk) >> 31); sel.n == candK+candBatch {
					sel.flush()
				}
			}
		}
	}
	if sel.n > sel.kept {
		sel.flush()
	}
	// Whole-row copy: entries past the stored count are never read.
	*(*[candK]int32)(s.cand[selfK*candK:]) = *(*[candK]int32)(sel.slot[:candK])
	cn := uint8(sel.kept)
	if sel.kept == candK && s.admitsMore(self, segs, tk) {
		cn |= candMore
	}
	s.candN[selfK] = cn
	return total
}

// admitsMore reports whether segs hold more than candK neighbors that tk
// admits (self excluded): the candMore test of a full row. It stops at the
// (candK+1)-th, so on crowded input it reads a few dozen visit times, not
// the whole neighborhood.
func (s *spatial[G]) admitsMore(self int32, segs [][2]int32, tk int32) bool {
	n := 0
	for _, sg := range segs {
		for j, t := range s.mate[sg[0]:sg[1]] {
			if t < tk && sg[0]+int32(j) != self {
				if n++; n > candK {
					return true
				}
			}
		}
	}
	return false
}

const (
	// distChunk is how many distances nearestCandidates gathers per
	// dist2Bits call.
	distChunk = 64
	// candBatch is how many admitted points the selector ranks in at once
	// when it already keeps candK. Small batches tighten the admission
	// bound sooner, which is what crowded neighborhoods need; a sparse
	// neighborhood of up to candK+candBatch points is ranked in one go.
	candBatch = 4
	// selCap sizes the selector's arrays (≥ candK+candBatch). A power of
	// two, so indices mask instead of bounds-checking.
	selCap = 2 * candK
)

// selector keeps the candK smallest of a stream of (distance, slot) points
// in (distance, arrival) order: the first candK entries of a stable sort.
// Distances are math.Float64bits of squared distances, which are finite
// and ≥ +0, so their bit patterns order exactly as the floats do; and for
// two such patterns (both < 2⁶³), the top bit of a−b is set exactly when
// a < b — the branch-free comparison the rank kernel counts with.
type selector struct {
	// d and slot hold the kept points in [0, kept), sorted, followed by
	// the pending batch in [kept, n) in arrival order.
	d       [selCap]uint64
	slot    [selCap]int32
	kept, n int
	// bound is the candK-th kept distance once candK points are kept
	// (MaxInt64 before): a point at or beyond it cannot enter.
	bound uint64
	// dist receives one chunk of gathered distances; od and oslot the
	// merged order during flush.
	dist  [distChunk]uint64
	od    [selCap]uint64
	oslot [selCap]int32
}

// flush ranks the pending batch together with the kept points and keeps
// the first candK of the merged order. A point's rank is the number of
// points that precede it in (distance, arrival) order: every earlier point
// at a distance ≤ its own and every later point at a strictly smaller
// distance. So each pair x < y is decided by one comparison, c = [d[y] <
// d[x]]: c counts toward x's rank and 1−c toward y's. The kept points are
// sorted and arrived before the batch, so among themselves their ranks are
// their indices, and only pairs with y in the batch are compared. Ranks are
// a permutation of [0, n), so the points scatter into place with no
// conflicts, and no branch depends on a distance.
func (sel *selector) flush() {
	d := sel.d[:sel.n]
	var rank [selCap]uint64
	r := rank[:len(d)]
	for x := range sel.kept {
		r[x] = uint64(x)
	}
	for y := sel.kept; y < len(d); y++ {
		dy, ry := d[y], uint64(y)
		for x, dx := range d[:y] {
			c := (dy - dx) >> 63 // dy < dx: y precedes x
			r[x] += c
			ry -= c
		}
		r[y] = ry
	}
	for x, dx := range d {
		at := r[x] & (selCap - 1)
		sel.od[at], sel.oslot[at] = dx, sel.slot[x]
	}
	for i := range candK {
		sel.d[i], sel.slot[i] = sel.od[i], sel.oslot[i]
	}
	sel.kept = min(len(d), candK)
	sel.n = sel.kept
	if sel.kept == candK {
		sel.bound = sel.d[candK-1]
	}
}

// gaussianOffset draws a 2-D Gaussian offset of standard deviation sigma
// via Box-Muller from two uniforms of src — the daughter-placement kernel
// shared by the spatial matchers.
func gaussianOffset(src *prng.Source, sigma float64) (dx, dy float64) {
	u1 := src.Float64()
	if u1 < 1e-12 {
		u1 = 1e-12
	}
	u2 := src.Float64()
	r := sigma * math.Sqrt(-2*math.Log(u1))
	return r * math.Cos(2*math.Pi*u2), r * math.Sin(2*math.Pi*u2)
}
