package match

import (
	"math"
	"runtime"
	"strconv"
	"testing"

	"popstab/internal/pool"
	"popstab/internal/population"
	"popstab/internal/prng"
)

// referenceNearestSample is the historical serial torus matching algorithm
// (pre-sharding torus.go), kept verbatim as the golden reference: visit
// agents in random order, pair each with its nearest unmatched agent in the
// 3×3 grid neighborhood, ties broken by scan order via the strict `<`
// minimum. The sharded pipeline must reproduce its output bit for bit.
func referenceNearestSample(pos []population.Point, src *prng.Source, p *Pairing) {
	n := len(pos)
	p.Reset(n)
	if n < 2 {
		return
	}
	side := int(math.Sqrt(float64(n)))
	if side < 1 {
		side = 1
	}
	grid := make([][]int32, side*side)
	cellOf := func(pt population.Point) (int, int) {
		cx := int(pt.X * float64(side))
		cy := int(pt.Y * float64(side))
		if cx >= side {
			cx = side - 1
		}
		if cy >= side {
			cy = side - 1
		}
		return cx, cy
	}
	for i := 0; i < n; i++ {
		cx, cy := cellOf(pos[i])
		grid[cy*side+cx] = append(grid[cy*side+cx], int32(i))
	}
	order := src.Perm(n)
	for _, i := range order {
		if p.Nbr[i] != Unmatched {
			continue
		}
		cx, cy := cellOf(pos[i])
		best := int32(-1)
		bestD := math.Inf(1)
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				gx := (cx + dx + side) % side
				gy := (cy + dy + side) % side
				for _, j := range grid[gy*side+gx] {
					if int(j) == i || p.Nbr[j] != Unmatched {
						continue
					}
					if d := TorusDist2(pos[i], pos[j]); d < bestD {
						bestD = d
						best = j
					}
				}
			}
		}
		if best >= 0 {
			p.Nbr[i] = best
			p.Nbr[best] = int32(i)
		}
	}
}

// TestTorusGoldenAgainstSerialReference is the tentpole equivalence
// guarantee: across population sizes (including degenerate grids with side
// < 3, where neighborhoods scan cells repeatedly), worker counts, and
// position distributions (uniform, tightly clustered, and fully degenerate
// all-one-point, which exercise the tie-breaking rule and the fallback
// rescan), the sharded pipeline's pairing is bit-identical to the
// historical serial algorithm.
func TestTorusGoldenAgainstSerialReference(t *testing.T) {
	sizes := []int{2, 3, 5, 17, 64, 100, 1000, 4096, 10000}
	workerCounts := []int{1, 2, 3, runtime.NumCPU()}
	for _, n := range sizes {
		shapes := []string{"uniform"}
		if n <= 4096 {
			// The degenerate shapes are quadratic in cluster size; keep
			// them to the smaller populations.
			shapes = append(shapes, "clustered")
			if n <= 1000 {
				shapes = append(shapes, "onepoint")
			}
		}
		for _, shape := range shapes {
			tor, pop := boundTorus(t, n, uint64(n))
			pos := tor.Positions().Slice()
			mut := prng.New(uint64(n) * 31)
			switch shape {
			case "clustered":
				// Pile agents into a few tight clusters so cells overflow
				// candK and the exact fallback rescan runs.
				for i := range pos {
					pos[i] = population.Point{
						X: wrap(float64(mut.Intn(3))/3 + 0.001*mut.Float64()),
						Y: wrap(float64(mut.Intn(3))/3 + 0.001*mut.Float64()),
					}
				}
			case "onepoint":
				// Every distance ties: the outcome is decided purely by
				// the scan-order tie-breaking rule.
				for i := range pos {
					pos[i] = population.Point{X: 0.25, Y: 0.25}
				}
			}
			var want Pairing
			referenceNearestSample(pos, prng.New(uint64(n)+7), &want)
			for _, w := range workerCounts {
				wp := pool.New(w)
				tor.SetPool(wp)
				var got Pairing
				tor.SampleMatch(pop, prng.New(uint64(n)+7), &got)
				wp.Close()
				if err := got.Validate(); err != nil {
					t.Fatalf("n=%d %s workers=%d: %v", n, shape, w, err)
				}
				for i := range want.Nbr {
					if got.Nbr[i] != want.Nbr[i] {
						t.Fatalf("n=%d %s workers=%d: pairing diverged from serial reference at agent %d: got %d, want %d",
							n, shape, w, i, got.Nbr[i], want.Nbr[i])
					}
				}
			}
		}
	}
}

// galleryNames lists the spatial matchers of the topology gallery.
var galleryNames = []string{"torus", "ring", "grid", "smallworld"}

// buildSpatial constructs and binds one gallery matcher over a fresh
// population of n agents, returning both.
func buildSpatial(t *testing.T, name string, n int, seed uint64) (Matcher, *population.Population) {
	t.Helper()
	sigma2 := 1 / math.Sqrt(float64(n))
	sigma1 := 1 / float64(n)
	var m Matcher
	var err error
	switch name {
	case "torus":
		m, err = NewTorus(sigma2)
	case "ring":
		m, err = NewRing(sigma1)
	case "grid":
		m, err = NewGrid(sigma2)
	case "smallworld":
		m, err = NewSmallWorld(sigma1, 0.2)
	default:
		t.Fatalf("unknown gallery matcher %q", name)
	}
	if err != nil {
		t.Fatal(err)
	}
	pop := population.New(n)
	m.(Binder).Bind(pop, prng.New(seed))
	return m, pop
}

// positionsOf exposes a gallery matcher's bound side-array.
func positionsOf(t *testing.T, m Matcher) *population.Positions {
	t.Helper()
	switch v := m.(type) {
	case *Torus:
		return v.Positions()
	case *Ring:
		return v.Positions()
	case *Grid:
		return v.Positions()
	case *SmallWorld:
		return v.Positions()
	}
	t.Fatalf("not a spatial matcher: %T", m)
	return nil
}

// withPool attaches a fresh pool of w workers to a spatial matcher,
// returning the pool's Close.
func withPool(m Matcher, w int) (closePool func()) {
	p := pool.New(w)
	m.(PoolSetter).SetPool(p)
	return p.Close
}

// shapePositions rewrites a gallery matcher's positions into one of the
// density shapes the pipeline must be worker-invariant on: "uniform" (as
// bound), "patchy" (many clumps of ~2 dozen agents sharing a cell —
// candidate lists overlap heavily and the exact rescan fires), "clustered"
// (three huge piles), "onepoint" (fully degenerate: every distance ties
// and all agents share one cell), and, on a torus, "emptyball" (agents with
// zero candidates).
func shapePositions(t *testing.T, m Matcher, shape string, seed uint64) {
	t.Helper()
	pos := positionsOf(t, m).Slice()
	mut := prng.New(seed)
	switch shape {
	case "uniform":
	case "patchy":
		nclumps := len(pos)/24 + 1
		centers := make([]population.Point, nclumps)
		for i := range centers {
			centers[i] = population.Point{X: mut.Float64(), Y: mut.Float64()}
		}
		for i := range pos {
			c := centers[mut.Intn(nclumps)]
			pos[i] = population.Point{
				X: wrap(c.X + 1e-6*mut.Float64()),
				Y: wrap(c.Y + 1e-6*mut.Float64()),
			}
		}
	case "clustered":
		for i := range pos {
			pos[i] = population.Point{
				X: wrap(float64(mut.Intn(3))/3 + 0.001*mut.Float64()),
				Y: wrap(float64(mut.Intn(3))/3 + 0.001*mut.Float64()),
			}
		}
	case "onepoint":
		for i := range pos {
			pos[i] = population.Point{X: 0.25, Y: 0.25}
		}
	case "emptyball":
		// Nine hermits sit in cells whose neighborhoods are otherwise
		// empty while the rest of the population crowds the lower-left
		// quarter, so the hermits see zero candidates and must stay
		// unmatched.
		for i := range pos {
			pos[i] = population.Point{X: 0.5 * mut.Float64(), Y: 0.5 * mut.Float64()}
		}
		side := int(math.Sqrt(float64(len(pos))))
		for k := 0; k < 9; k++ {
			r, c := side/2+4+4*(k/3), side/2+4+4*(k%3)
			pos[k] = population.Point{
				X: (float64(c) + 0.5) / float64(side),
				Y: (float64(r) + 0.5) / float64(side),
			}
		}
	default:
		t.Fatalf("unknown shape %q", shape)
	}
}

// TestSpatialWorkersBitIdentical pins the worker-count invariance of every
// gallery matcher on its default uniform positions: on pools of {1, 2, 4,
// NumCPU} workers, a fresh identically-seeded run produces the pairing of
// the inline run with no pool at all. The torus additionally runs a
// population churning across rounds, which exercises buffer reuse as n
// moves.
func TestSpatialWorkersBitIdentical(t *testing.T) {
	for _, name := range galleryNames {
		t.Run(name, func(t *testing.T) {
			checkWorkersBitIdentical(t, name, 8192, "uniform")
			if name == "torus" {
				t.Run("churn", testChurnWorkers)
			}
		})
	}
}

// TestSpatialShapesBitIdentical extends the worker-count invariance to
// density shapes from patchy to fully degenerate. The torus additionally
// covers the empty-ball case: agents with zero candidates stay unmatched
// under every worker count.
func TestSpatialShapesBitIdentical(t *testing.T) {
	for _, name := range galleryNames {
		shapes := []string{"uniform", "patchy", "clustered", "onepoint"}
		if name == "torus" {
			shapes = append(shapes, "emptyball")
		}
		for _, shape := range shapes {
			n := 8192
			if shape != "uniform" && shape != "patchy" {
				// The degenerate shapes are quadratic in cluster size;
				// 2048 agents still split into two shards.
				n = 2048
			}
			t.Run(name+"/"+shape, func(t *testing.T) {
				checkWorkersBitIdentical(t, name, n, shape)
			})
		}
	}
}

// checkWorkersBitIdentical matches n agents of the named gallery matcher,
// laid out in the given density shape, inline and on pools of {1, 2, 4,
// NumCPU} workers, and fails unless every pairing is the inline one.
func checkWorkersBitIdentical(t *testing.T, name string, n int, shape string) {
	t.Helper()
	run := func(workers int) []int32 {
		m, pop := buildSpatial(t, name, n, 101)
		shapePositions(t, m, shape, uint64(n)*13)
		if workers > 0 {
			defer withPool(m, workers)()
		}
		var p Pairing
		m.SampleMatch(pop, prng.New(777), &p)
		if err := p.Validate(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return append([]int32(nil), p.Nbr...)
	}
	want := run(0)
	for k := 0; shape == "emptyball" && k < 9; k++ {
		if want[k] != Unmatched {
			t.Errorf("hermit %d matched with %d, want unmatched", k, want[k])
		}
	}
	for _, w := range []int{1, 2, 4, runtime.NumCPU()} {
		comparePairings(t, "workers="+strconv.Itoa(w), run(w), want)
	}
}

// testChurnWorkers drives a torus through repeated insert/delete/match
// rounds on an 8-worker pool and asserts every round's pairing equals an
// inline twin's — the pipeline buffers must stay correct as n moves.
func testChurnWorkers(t *testing.T) {
	const n = 2048
	ms, pops := buildSpatial(t, "torus", n, 71)
	mp, popp := buildSpatial(t, "torus", n, 71)
	defer withPool(mp, 8)()
	srcS, srcP := prng.New(5), prng.New(5)
	mut := prng.New(6)
	for round := 0; round < 12; round++ {
		for k := 0; k < 64; k++ {
			i := mut.Intn(pops.Len())
			if mut.Intn(2) == 0 {
				pops.Insert(pops.State(i))
				popp.Insert(popp.State(i))
			} else {
				pops.DeleteSwap(i)
				popp.DeleteSwap(i)
			}
		}
		var ps, pp Pairing
		ms.SampleMatch(pops, srcS, &ps)
		mp.SampleMatch(popp, srcP, &pp)
		comparePairings(t, "round "+strconv.Itoa(round), pp.Nbr, ps.Nbr)
	}
}

// comparePairings fails at the first agent whose partner differs.
func comparePairings(t *testing.T, label string, got, want []int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: pairing over %d agents, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: pairing diverged at agent %d: got %d, want %d", label, i, got[i], want[i])
		}
	}
}

// TestPipelineStatsAccumulate pins the PhaseReporter counters: samples and
// per-phase times accumulate, every sample runs one serial walk, and Sub
// yields deltas.
func TestPipelineStatsAccumulate(t *testing.T) {
	const n = 4096
	m, pop := buildSpatial(t, "torus", n, 77)
	defer withPool(m, 2)()
	rep := m.(PhaseReporter)
	src := prng.New(3)
	var p Pairing
	m.SampleMatch(pop, src, &p)
	first := rep.PipelineStats()
	if first.Samples != 1 {
		t.Fatalf("Samples = %d after one sample", first.Samples)
	}
	if first.BucketNS == 0 || first.ScatterNS == 0 || first.CandNS == 0 || first.WalkNS == 0 {
		t.Errorf("phase times did not accumulate: %+v", first)
	}
	if first.SerialWalks != first.Samples || first.SpecWalks != 0 {
		t.Errorf("walk counters inconsistent: %+v", first)
	}
	for i := 0; i < 3; i++ {
		m.SampleMatch(pop, src, &p)
	}
	cur := rep.PipelineStats()
	if cur.Samples != 4 || cur.SerialWalks != cur.Samples {
		t.Fatalf("after four samples: %+v", cur)
	}
	if d := cur.Sub(first); d.Samples != 3 || d.SerialWalks != 3 {
		t.Errorf("Sub delta wrong: %+v", d)
	}
	if r := cur.ConflictRate(); r != 0 {
		t.Errorf("conflict rate %v, want 0", r)
	}
}

// TestSpatialConformance is the shared Matcher conformance suite of the
// topology gallery: every spatial matcher must produce valid pairings
// (involution, no self-match), honor its MinFraction guarantee, and replay
// deterministically under an identical seed.
func TestSpatialConformance(t *testing.T) {
	const n = 4096
	for _, name := range galleryNames {
		t.Run(name, func(t *testing.T) {
			m, pop := buildSpatial(t, name, n, 5)
			var p Pairing
			m.SampleMatch(pop, prng.New(17), &p)
			if err := p.Validate(); err != nil {
				t.Fatalf("invalid pairing: %v", err)
			}
			if frac := float64(p.Matched()) / float64(n); frac < m.MinFraction() {
				t.Errorf("matched fraction %.3f below MinFraction %.3f", frac, m.MinFraction())
			}
			if p.Matched() < n/2 {
				t.Errorf("only %d of %d agents matched", p.Matched(), n)
			}

			// Deterministic replay: identical seeds, identical pairing.
			m2, pop2 := buildSpatial(t, name, n, 5)
			var p2 Pairing
			m2.SampleMatch(pop2, prng.New(17), &p2)
			for i := range p.Nbr {
				if p.Nbr[i] != p2.Nbr[i] {
					t.Fatalf("replay diverged at agent %d: %d != %d", i, p.Nbr[i], p2.Nbr[i])
				}
			}

			// Name is non-empty and stable (experiment output key).
			if m.Name() == "" || m.Name() != m2.Name() {
				t.Error("unstable matcher name")
			}
		})
	}
}

// TestSpatialTracksMutations drives inserts, deletes, and Apply passes
// through a population bound to each gallery matcher and asserts the
// position side-array stays aligned, positions stay in the unit domain,
// and matching still works afterwards.
func TestSpatialTracksMutations(t *testing.T) {
	for _, name := range galleryNames {
		t.Run(name, func(t *testing.T) {
			m, pop := buildSpatial(t, name, 64, 7)
			src := prng.New(8)
			for step := 0; step < 60; step++ {
				switch src.Intn(3) {
				case 0:
					pop.Insert(pop.State(src.Intn(pop.Len())))
				case 1:
					pop.DeleteSwap(src.Intn(pop.Len()))
				default:
					actions := make([]population.Action, pop.Len())
					for i := range actions {
						actions[i] = population.Action(src.Intn(3))
					}
					pop.Apply(actions)
				}
				ps := positionsOf(t, m)
				if ps.Len() != pop.Len() {
					t.Fatalf("step %d: positions %d != population %d", step, ps.Len(), pop.Len())
				}
				for i := 0; i < ps.Len(); i++ {
					pt := ps.At(i)
					if pt.X < 0 || pt.X >= 1 || pt.Y < 0 || pt.Y >= 1 {
						t.Fatalf("step %d: position %d escaped the unit domain: %+v", step, i, pt)
					}
				}
			}
			var p Pairing
			m.SampleMatch(pop, src, &p)
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRingLocality pins Ring's defining property: matched pairs are close
// on the circle (order 1/n), far below the ~0.25 mean distance of uniform
// matching.
func TestRingLocality(t *testing.T) {
	const n = 4096
	m, pop := buildSpatial(t, "ring", n, 3)
	r := m.(*Ring)
	var p Pairing
	r.SampleMatch(pop, prng.New(4), &p)
	var sumD float64
	matched := 0
	for i := 0; i < n; i++ {
		j := p.Nbr[i]
		if j == Unmatched {
			continue
		}
		matched++
		sumD += math.Sqrt(RingDist2(r.Positions().At(i), r.Positions().At(int(j))))
	}
	if matched < n/2 {
		t.Fatalf("only %d of %d matched", matched, n)
	}
	if meanD := sumD / float64(matched); meanD > 10.0/float64(n) {
		t.Errorf("mean ring pair distance %.5f not local (spacing %.5f)", meanD, 1.0/float64(n))
	}
}

// TestRingWrapHalfWidth pins the 1-D metric at exactly half the circle
// width, the wraparound watershed: both directions around the circle
// measure the same 0.5, and anything shorter wraps to the near side.
func TestRingWrapHalfWidth(t *testing.T) {
	a := population.Point{X: 0.1}
	b := population.Point{X: 0.6}
	if d := RingDist2(a, b); math.Abs(d-0.25) > 1e-15 {
		t.Errorf("RingDist2 at half width = %v, want 0.25", d)
	}
	if d := RingDist2(b, a); math.Abs(d-0.25) > 1e-15 {
		t.Errorf("RingDist2 asymmetric at half width: %v", d)
	}
	c := population.Point{X: 0.65}
	if d := RingDist2(a, c); math.Abs(d-0.45*0.45) > 1e-15 {
		t.Errorf("RingDist2 past half width = %v, want wrap to 0.45²", d)
	}
}

// TestGridBoundary pins Grid's non-wrapping metric: two agents hugging
// opposite walls are far apart (no wraparound shortcut), and daughters
// reflect back into the square.
func TestGridBoundary(t *testing.T) {
	a := population.Point{X: 0.01, Y: 0.5}
	b := population.Point{X: 0.99, Y: 0.5}
	if d := EuclidDist2(a, b); math.Abs(d-0.98*0.98) > 1e-12 {
		t.Errorf("EuclidDist2 wrapped: %v", d)
	}
	if TorusDist2(a, b) >= 0.01 {
		t.Errorf("sanity: torus metric should wrap here")
	}
	for _, tc := range []struct{ in, want float64 }{
		{0.5, 0.5}, {-0.25, 0.25}, {1.25, 0.75}, {0, 0}, {2.5, 0.5}, {-1.5, 0.5},
	} {
		if got := reflect01(tc.in); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("reflect01(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	g, err := NewGrid(0.3)
	if err != nil {
		t.Fatal(err)
	}
	g.Bind(population.New(16), prng.New(5))
	for i := 0; i < 1000; i++ {
		d := g.daughter(population.Point{X: 0.02, Y: 0.98})
		if d.X < 0 || d.X >= 1 || d.Y < 0 || d.Y >= 1 {
			t.Fatalf("daughter escaped the square: %+v", d)
		}
	}
}

// TestSmallWorldBetaEndpoints pins the rewiring semantics: at β = 0 every
// pair is ring-local; at β = 1 pair distances are long-range (approaching
// the ~0.25 uniform expectation on the circle); at β in between, between.
func TestSmallWorldBetaEndpoints(t *testing.T) {
	const n = 4096
	meanPairDist := func(beta float64) float64 {
		sw, err := NewSmallWorld(1.0/n, beta)
		if err != nil {
			t.Fatal(err)
		}
		pop := population.New(n)
		sw.Bind(pop, prng.New(21))
		var p Pairing
		sw.SampleMatch(pop, prng.New(22), &p)
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		var sum float64
		matched := 0
		for i := 0; i < n; i++ {
			j := p.Nbr[i]
			if j == Unmatched {
				continue
			}
			matched++
			sum += math.Sqrt(RingDist2(sw.Positions().At(i), sw.Positions().At(int(j))))
		}
		if matched < n/2 {
			t.Fatalf("beta=%v: only %d of %d matched", beta, matched, n)
		}
		return sum / float64(matched)
	}
	local := meanPairDist(0)
	mixed := meanPairDist(1)
	if local > 10.0/n {
		t.Errorf("beta=0 mean pair distance %.5f not local", local)
	}
	if mixed < 0.1 {
		t.Errorf("beta=1 mean pair distance %.5f not long-range", mixed)
	}
	if mid := meanPairDist(0.5); mid < local || mid > mixed {
		t.Errorf("beta=0.5 mean pair distance %.5f outside [%v, %v]", mid, local, mixed)
	}
}

// TestSmallWorldProbeDoesNotPerturb pins the probe counter plane: an
// interleaved probe sample leaves subsequent match samples identical to an
// unprobed run.
func TestSmallWorldProbeDoesNotPerturb(t *testing.T) {
	const n = 2048
	run := func(probe bool) []int32 {
		sw, err := NewSmallWorld(1.0/n, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		pop := population.New(n)
		sw.Bind(pop, prng.New(31))
		src := prng.New(32)
		var p Pairing
		sw.SampleMatch(pop, src, &p)
		if probe {
			var pp Pairing
			sw.SampleProbe(pop, &pp)
		}
		sw.SampleMatch(pop, src, &p)
		out := make([]int32, n)
		copy(out, p.Nbr)
		return out
	}
	want := run(false)
	got := run(true)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("probe perturbed the match stream at agent %d: %d != %d", i, got[i], want[i])
		}
	}
}

// TestSpatialUnboundPanics pins the Bind contract for the whole gallery.
func TestSpatialUnboundPanics(t *testing.T) {
	tor, _ := NewTorus(0.01)
	ring, _ := NewRing(0.01)
	grid, _ := NewGrid(0.01)
	sw, _ := NewSmallWorld(0.01, 0.1)
	for _, m := range []Matcher{tor, ring, grid, sw} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%T: SampleMatch before Bind did not panic", m)
				}
			}()
			var p Pairing
			m.SampleMatch(population.New(4), prng.New(1), &p)
		}()
	}
}

// TestNewSpatialValidation covers constructor validation across the
// gallery.
func TestNewSpatialValidation(t *testing.T) {
	bad := []float64{0, -0.1, math.NaN(), math.Inf(1)}
	for _, sigma := range bad {
		if _, err := NewRing(sigma); err == nil {
			t.Errorf("NewRing accepted sigma %v", sigma)
		}
		if _, err := NewGrid(sigma); err == nil {
			t.Errorf("NewGrid accepted sigma %v", sigma)
		}
		if _, err := NewSmallWorld(sigma, 0.1); err == nil {
			t.Errorf("NewSmallWorld accepted sigma %v", sigma)
		}
	}
	for _, beta := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := NewSmallWorld(0.01, beta); err == nil {
			t.Errorf("NewSmallWorld accepted beta %v", beta)
		}
	}
	for _, mk := range []func() (Matcher, error){
		func() (Matcher, error) { return NewRing(0.01) },
		func() (Matcher, error) { return NewGrid(0.01) },
		func() (Matcher, error) { return NewSmallWorld(0.01, 1) },
	} {
		if m, err := mk(); err != nil || m == nil {
			t.Errorf("constructor rejected valid parameters: %v", err)
		}
	}
}

// TestPermInt32IntoMatchesPerm pins the drop-in contract of the
// allocation-free permutation used by the greedy walk.
func TestPermInt32IntoMatchesPerm(t *testing.T) {
	for _, n := range []int{0, 1, 2, 17, 1000} {
		a := prng.New(uint64(n) + 5)
		b := prng.New(uint64(n) + 5)
		want := a.Perm(n)
		got := make([]int32, n)
		b.PermInt32Into(got)
		for i := range want {
			if int32(want[i]) != got[i] {
				t.Fatalf("n=%d: PermInt32Into diverged from Perm at %d", n, i)
			}
		}
		// The sources must stay in lockstep afterwards.
		if a.Uint64() != b.Uint64() {
			t.Fatalf("n=%d: source state diverged", n)
		}
	}
}
