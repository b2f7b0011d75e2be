package match

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"popstab/internal/pool"
	"popstab/internal/population"
	"popstab/internal/prng"
	"popstab/internal/wire"
)

// This file is the shared chassis of every spatial Matcher (Torus, Ring,
// Grid, SmallWorld): a position side-array bound through population.Tracker
// hooks plus one nearest-available matching pipeline. The concrete
// matchers differ only in their geometry (bucket layout + metric) and their
// placement closures; roughly 100 LoC each buys a new topology.
//
// # The matching pipeline
//
// Nearest-available matching is a greedy sequential algorithm: agents are
// visited in a random order and each pairs with its nearest still-unmatched
// candidate, so the outcome of a visit depends on every earlier visit. The
// pipeline keeps the exact pairings of the historical serial implementation
// and shards the one stage whose sharding measurably pays, the candidate
// search:
//
//  1. bucket (serial): cellIdx[i] = cell of agent i — pure float math. It
//     runs only when the rows are rebuilt (see "Row reuse"). At N = 2¹⁸ on
//     2 CPUs a sharded form sped it up by a median 1.01× (0.94–1.44×) over
//     six traced torus-patch runs: inside the compose∥match overlap the
//     pool's one worker is busy composing, so the caller ran both parts.
//     Only outside the overlap did it save about 0.5 ms of the 1.4 ms loop
//     (DESIGN.md §15);
//  2. scatter (serial): a stable counting sort builds the CSR cell index
//     (cellStart/cellAgents/posByCell), ascending agent index within each
//     cell, and leaves cellIdx[i] = slot of agent i, the map the walk's
//     visit order and the rewrite hook start from. It also runs only when
//     the rows are rebuilt. At N = 2¹⁸ on 2 CPUs a sharded form saved
//     1–2 ms per build, which averages to about 0.15 ms of a 19–22 ms paced
//     torus round, and kept a shards × cells histogram resident
//     (DESIGN.md §12);
//  3. candidates (sharded): for every CSR slot k (an agent's position in
//     the cell-sorted cellAgents/posByCell layout), scan the neighborhood
//     cells and keep the candK nearest candidates, sorted by (distance,
//     scan order), as neighbor SLOTS in cand[k*candK:] — slots are visited
//     in order, so the candidate rows are written sequentially, and each
//     shard owns its slots (no shared writes);
//  4. greedy walk (serial), in slot space: visit agents in a random order
//     drawn from the matcher's stream; each unmatched agent takes the
//     first unmatched entry of its precomputed candidate list, recording
//     partners in the slot-indexed mate array. Because the list is the
//     prefix of the full stable ordering, "first unmatched stored
//     candidate" IS the nearest unmatched candidate — unless all stored
//     entries are taken while further candidates exist (candMore), in
//     which case an exact fallback rescan of the neighborhood (same
//     metric, same tie-breaking) recovers the answer. The walk is
//     inherently sequential and stays serial: DESIGN.md §12 records why
//     parallelizing it did not pay. A final serial pass translates mate
//     back to agent indices in Pairing.Nbr, writing every entry (no
//     separate Unmatched fill). Sharded, that pass took 1.22–1.25 ms
//     against 1.12–1.15 ms inline at Workers 2, and the walk after it ran
//     slower (DESIGN.md §15).
//
// Every pool callback and buffer a sample uses is bound or sized in the
// matcher, so a sample that reuses its rows allocates nothing, and one that
// builds them allocates only pool.Run's call when the candidate phase runs
// in more than one part.
//
// # Row reuse
//
// Phases 1–3 read nothing but the positions, n and the geometry, so while
// no rewrite hook is installed their output — cellStart, cellAgents,
// posByCell, the candidate rows and the agent -> slot map in cellIdx — is a
// pure function of those. Every write to the position array bumps
// Positions.Version, so a sample whose (Version, n) equals the last build's
// skips phases 1–3 and walks the rows it already has; phase 4 reads the
// rows and never writes them. Rows are therefore never pruned by the
// sample's visit order: such a row would be wrong for the next sample's.
// SmallWorld's rewrite hook draws fresh counter streams every sample, so
// while a hook is installed the rows are rebuilt every sample.
//
// Reuse pays only in rounds that leave the positions alone. An honest agent
// splits or dies only in its epoch's evaluation round or on a failed
// consistency check, so that is most rounds when the adversary is paced
// (Spec.PerEpochBudget) and acts in few of them. An unpaced adversary with
// K ≥ 1 may insert or delete every round; then every sample rebuilds, and
// a rebuilt round costs more than one with rows pruned by visit order did,
// because the walk passes over more taken candidates (DESIGN.md §15).
// The cache is not state: a restored matcher builds its rows on its first
// sample.
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
// Phase 4 copies the agent -> slot map into order and shuffles that buffer
// with src.ShuffleInt32, whose variates are those of shuffling an
// identity-filled permutation of the agents: the swaps depend only on
// positions and variates, so order[t] is the slot of the agent that
// permutation would visit t-th. Matchers that need per-agent coins inside
// the sharded candidate phase (SmallWorld's rewiring) draw them from
// counter-based streams keyed on (matcher key, sample counter, agent index)
// — see prng.SeedCounter — so shard boundaries cannot perturb them.

// candK is the number of nearest candidates precomputed per slot. Larger
// values make the exact fallback rescan rarer but cost memory bandwidth in
// the sharded candidate phase. The rescan runs inside the serial greedy
// walk, and only for an agent with more than candK neighbors whose stored
// ones are all taken: on the uniform torus, at ~1 agent per cell, that is
// about 3% of visits, and each rescan reads one neighborhood.
const candK = 8

// maxNbrCells bounds a geometry's neighborhood size (3×3 cells in 2-D,
// 3 cells in 1-D).
const maxNbrCells = 9

// minSpatialShard bounds how finely the candidate phase splits: below ~1k
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
	// g is geo prepared for the current sample's n: the bucket grid every
	// phase reads.
	g G
	// pool, when set (SetPool), runs the candidate phase on the engine's
	// persistent worker pool; nil (standalone use) is the serial pool, and
	// the phase runs inline. Same output either way.
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
	// installed, the rows are rebuilt every sample (see "Row reuse").
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

	// candRange is the method value of candidates, bound once in bind so
	// that a row build allocates no closure; buildCall is the sample counter
	// of the build in progress, the rewrite hook's counter word.
	candRange func(part, lo, hi int)
	buildCall uint64

	// rowsN and rowsVersion key the rows of the last build: n and the
	// position array's Version (see "Row reuse"). rowsN = 0 before the
	// first build, which no sample of n ≥ 2 matches.
	rowsN       int
	rowsVersion uint64

	// Pipeline buffers, reused across rounds (1.5× growth slack). A slot
	// is an index into the CSR layout (cellAgents/posByCell).
	cellIdx    []int32            // agent -> bucket; agent -> slot after the scatter
	cellStart  []int32            // CSR: bucket c holds slots [cellStart[c], cellStart[c+1])
	cellAgents []int32            // slot -> agent, ascending agent index within a cell
	posByCell  []population.Point // slot -> position — sequential reads in the candidate scan
	cand       []int32            // candK nearest candidate slots per slot
	candN      []uint8            // stored candidate count per slot, | candMore
	mate       []int32            // slot -> partner slot in the walk, -1 while unmatched
	order      []int32            // visit order of slots: a shuffled copy of cellIdx
	candShards []candShard        // one candidate-phase scratch per pool.Run part
	// nbuf is the walk's rescan neighborhood buffer. As a local it would
	// escape, for the reason candShard gives, on every sample.
	nbuf [maxNbrCells]int32
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
	s.candRange = s.candidates
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
// reallocate every round.
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

// sample runs the pipeline documented at the top of this file: phases 1–3
// (buildRows) unless the last build's rows still hold, then phase 4.
func (s *spatial[G]) sample(n int, src *prng.Source, p *Pairing, call uint64) {
	if n < 2 {
		p.Reset(n)
		return
	}
	p.resize(n) // the output pass writes every entry
	if s.prematch != nil {
		s.prematch(n)
	}
	s.g = s.geo.prepare(n)
	s.stats.Samples++
	if v := s.pos.Version(); s.rewrite != nil || n != s.rowsN || v != s.rowsVersion {
		s.buildRows(n, call)
		s.rowsN, s.rowsVersion = n, v
	}

	// Phase 4: random-order greedy matching in slot space. Shuffling the
	// agent -> slot map with the variates of an identity-filled shuffle
	// turns it into the visit order of slots (see the file header), so the
	// walk is bit-identical to the historical agent-space form; a serial
	// pass then writes every agent's partner into the pairing.
	t0 := time.Now()
	copy(s.order, s.cellIdx)
	src.ShuffleInt32(s.order)
	mate := s.mate
	for k := range mate {
		mate[k] = -1
	}
	s.walk()
	cellAgents, nbr := s.cellAgents, p.Nbr
	for k, m := range mate {
		j := Unmatched
		if m >= 0 {
			j = cellAgents[m]
		}
		nbr[cellAgents[k]] = j
	}
	s.stats.SerialWalks++
	s.stats.WalkNS += uint64(time.Since(t0))
}

// buildRows runs phases 1–3 over the bound positions: it buckets them,
// scatters them into the CSR layout and fills every slot's candidate row.
func (s *spatial[G]) buildRows(n int, call uint64) {
	pos := s.pos.Slice()
	s.ensure(n, s.g.numCells())
	s.stats.RowBuilds++

	// Phase 1 (serial): bucket every agent.
	t0 := time.Now()
	s.bucket(pos)
	s.stats.BucketNS += uint64(time.Since(t0))

	// Phase 2 (serial): stable counting-sort scatter into the CSR index;
	// it also leaves cellIdx[i] = slot of agent i.
	t0 = time.Now()
	s.scatter(pos)
	s.stats.ScatterNS += uint64(time.Since(t0))

	// Phase 3 (sharded): candidates over pool.Run's parts, each with its
	// own reused scratch.
	t0 = time.Now()
	w := s.pool.Shards(n, minSpatialShard)
	if len(s.candShards) < w {
		s.candShards = make([]candShard, w)
	}
	s.buildCall = call
	s.pool.Run(n, minSpatialShard, s.candRange)
	for _, scr := range s.candShards[:w] {
		s.stats.DistEvals += scr.dists
	}
	s.stats.CandNS += uint64(time.Since(t0))
}

// candidates is phase 3 over CSR slots [lo, hi), pool.Run's part part:
// per-slot candK-nearest candidate selection, iterated in CSR order so
// slots of the same cell reuse each other's neighborhood segments, scanning
// the cell-sorted position copy (posByCell) in contiguous segments and
// writing candidate rows sequentially. The scan ORDER over candidates is
// the per-agent one — segments are maximal runs of consecutive cell ids in
// the geometry's neighborhood order — so tie-breaking is unchanged.
func (s *spatial[G]) candidates(part, lo, hi int) {
	scr := &s.candShards[part]
	n, rewrite := len(s.cellAgents), s.rewrite
	dists := 0
	var segs [maxNbrCells][2]int32
	// The cell containing CSR slot lo: the first that ends after it.
	c := int32(sort.Search(len(s.cellStart)-1, func(c int) bool {
		return s.cellStart[c+1] > int32(lo)
	}))
	nseg := -1 // neighborhood segments of cell c not yet computed
	for k := lo; k < hi; k++ {
		for int32(k) >= s.cellStart[c+1] {
			c++
			nseg = -1
		}
		if rewrite != nil {
			row := s.cand[k*candK : (k+1)*candK]
			if kn := rewrite(int(s.cellAgents[k]), n, s.buildCall, row); kn >= 0 {
				for x, a := range row[:kn] {
					row[x] = s.cellIdx[a] // agent -> slot since the scatter
				}
				s.candN[k] = uint8(kn)
				continue
			}
		}
		if nseg < 0 {
			cells := s.g.neighborhood(c, scr.nbuf[:0])
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
		dists += s.nearestCandidates(&scr.sel, k, segs[:nseg])
	}
	scr.dists = uint64(dists)
}

// bucket is phase 1: cellIdx[i] = the cell of agent i. It is kept out of
// buildRows: written inline there, unpaced torus rounds at N = 2¹⁸ spent
// about 0.3 ms more in this loop and 3 ms more in the candidate phase after
// it (DESIGN.md §15).
func (s *spatial[G]) bucket(pos []population.Point) {
	g, cellIdx := s.g, s.cellIdx
	for i := range cellIdx {
		cellIdx[i] = g.cell(pos[i])
	}
}

// scatter is phase 2: a serial stable counting sort over the buckets in
// cellIdx that builds cellStart/cellAgents/posByCell, ascending agent index
// within each cell, and overwrites cellIdx[i], dead once read, with agent
// i's slot. It counts cell c's agents into cellStart[c+1], prefix-sums, then
// scatters with cellStart[c] as cell c's cursor. That leaves cellStart[c] at
// the end of cell c, the start of cell c+1, so a shift by one restores the
// offsets.
func (s *spatial[G]) scatter(pos []population.Point) {
	start := s.cellStart
	clear(start)
	for _, c := range s.cellIdx {
		start[c+1]++
	}
	for c := 1; c < len(start); c++ {
		start[c] += start[c-1]
	}
	for i, c := range s.cellIdx {
		at := start[c]
		start[c]++
		s.cellAgents[at] = int32(i)
		s.posByCell[at] = pos[i]
		s.cellIdx[i] = at
	}
	copy(start[1:], start[:len(start)-1])
	start[0] = 0
}

// walk is phase 4's serial greedy loop over the shuffled slot order: each
// unmatched slot takes the first unmatched stored candidate, or runs the
// exact fallback rescan when the stored prefix is exhausted but the
// neighborhood holds more.
func (s *spatial[G]) walk() {
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
			best = s.rescan(k)
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
// precomputed candidate prefix is exhausted. Slots within a cell ascend
// with agent index, so the strict `<` minimum breaks ties as before.
func (s *spatial[G]) rescan(k int32) int32 {
	best := int32(-1)
	bestD := math.Inf(1)
	pk := s.posByCell[k]
	for _, c := range s.g.neighborhood(s.g.cell(pk), s.nbuf[:0]) {
		for j := s.cellStart[c]; j < s.cellStart[c+1]; j++ {
			if j == k || s.mate[j] >= 0 {
				continue
			}
			if d := s.g.dist2(pk, s.posByCell[j]); d < bestD {
				bestD = d
				best = j
			}
		}
	}
	return best
}

// candMore is the candN bit saying the neighborhood holds more candidates
// than the stored ones (the walk's exact-rescan trigger); the low bits hold
// the stored count.
const candMore = 0x80

// nearestCandidates fills slot selfK's candidate row with its candK nearest
// neighbor slots in (distance, scan order) — the prefix of the full stable
// ordering. segs are [start, end) slot ranges covering the neighborhood in
// exact scan order; selfK itself is skipped wherever it appears. Distances
// are gathered a chunk at a time by one dist2Bits call, and a point at or
// beyond the current candK-th best distance is dropped before it reaches
// the selector's batch, which keeps crowded neighborhoods linear. sel is
// the calling shard's scratch selector. It returns how many distances it
// evaluated: the neighborhood's points other than selfK.
func (s *spatial[G]) nearestCandidates(sel *selector, selfK int, segs [][2]int32) int {
	sel.kept, sel.n, sel.bound = 0, 0, math.MaxInt64
	g, pi := s.g, s.posByCell[selfK]
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
			for x, d := range ds {
				if d >= sel.bound {
					continue
				}
				at := sel.n & (selCap - 1)
				sel.d[at], sel.slot[at] = d, lo+int32(x)
				if sel.n++; sel.n == candK+candBatch {
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
	if total > candK {
		cn |= candMore
	}
	s.candN[selfK] = cn
	return total
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
