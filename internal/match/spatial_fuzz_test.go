package match

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"popstab/internal/agent"
	"popstab/internal/pool"
	"popstab/internal/population"
	"popstab/internal/prng"
	"popstab/internal/wire"
)

// referenceSpatialSample is the row-free greedy walk over any geometry —
// referenceNearestSample generalized over the geometry seam: it visits the
// agents in order, and each unmatched agent takes the first unmatched
// agent of its rewritten list when the rewrite hook (nil for none) replaces
// it, and otherwise the nearest unmatched agent of its whole neighborhood
// under the geometry's metric, ties broken by scan order (neighborhood
// cells in order, agents ascending within a cell) via the strict `<`
// minimum. It keeps no candidate rows, so nothing in it is cached.
func referenceSpatialSample[G geometry[G]](g G, pos []population.Point, order []int,
	rewrite func(i, n int, call uint64, dst []int32) int, call uint64) []int32 {
	n := len(pos)
	nbr := make([]int32, n)
	for i := range nbr {
		nbr[i] = Unmatched
	}
	cells := make([][]int32, g.numCells())
	for i, pt := range pos {
		c := g.cell(pt)
		cells[c] = append(cells[c], int32(i))
	}
	var nbuf [maxNbrCells]int32
	var dst [candK]int32
	for _, i := range order {
		if nbr[i] != Unmatched {
			continue
		}
		best := int32(-1)
		kn := -1
		if rewrite != nil {
			kn = rewrite(i, n, call, dst[:])
		}
		if kn >= 0 {
			for _, a := range dst[:kn] {
				if nbr[a] == Unmatched {
					best = a
					break
				}
			}
		} else {
			bestD := math.Inf(1)
			for _, c := range g.neighborhood(g.cell(pos[i]), nbuf[:0]) {
				for _, j := range cells[c] {
					if int(j) == i || nbr[j] != Unmatched {
						continue
					}
					if d := g.dist2(pos[i], pos[j]); d < bestD {
						bestD = d
						best = j
					}
				}
			}
		}
		if best >= 0 {
			nbr[i] = best
			nbr[best] = int32(i)
		}
	}
	return nbr
}

// halfController applies one rewiring directive to the agents on the left
// half of the circle and leaves the rest on the β coin.
type halfController struct{ mode RewireMode }

func (h halfController) Mode(_ int, pt population.Point) RewireMode {
	if pt.X < 0.5 {
		return h.mode
	}
	return RewireDefault
}

// FuzzSpatialMatch is the differential check of the pipeline's candidate
// rows and of their reuse: SampleMatch's pairing must equal
// referenceSpatialSample's under the same visit order and rewrite hook, in
// each of three samples with one operation on the population between
// consecutive ones. A sample reuses the last build's rows when the
// positions did not change (spatial.go, "Row reuse"), so an operation that
// writes positions without bumping Positions.Version shows as a stale
// pairing here. The input bytes (zero-padded to 17) choose:
//
//	data[0]     topology (%4: torus, grid, ring, smallworld) and, for
//	            smallworld, the rewiring controller (>>2 %4: none, force
//	            the left half, deny the left half, force all into a
//	            target arc whose radius data[0]>>4 sets);
//	data[1:3]   n in [2, 600] — side < 3 included;
//	data[3]     workers (%3 + 1);
//	data[4]     smallworld's β (/255);
//	data[5]     lattice share (%8 of 8) and lattice resolution (>>3 + 1):
//	            lattice points tie exactly;
//	data[6]     duplicate share (%8 of 8) and the spread of the non-lattice
//	            points around the center (>>3 + 1 of 32);
//	data[7:15]  the seed of the positions, the bind, the visit order and the
//	            operations;
//	data[15:17] the operation after the first and after the second sample:
//	            %8 picks none, SetAt, Insert, DeleteSwap, Apply, ForceResize,
//	            a snapshot round trip into a rebound matcher, or restoring
//	            the snapshot taken before the first sample in place; >>3
//	            scales it (reshape.op).
//
// At n ≤ 600 the sharded phases run as one shard whatever the worker count;
// worker invariance at sizes that split is TestSpatialShapesBitIdentical's.
//
// The seed corpus lives in testdata/fuzz/FuzzSpatialMatch; plain go test
// runs it. Explore with:
// go test -run '^$' -fuzz '^FuzzSpatialMatch$' -fuzztime 30s ./internal/match
func FuzzSpatialMatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var b [17]byte
		copy(b[:], data)
		topo, ctl := b[0]%4, (b[0]>>2)%4
		n := 2 + int(binary.LittleEndian.Uint16(b[1:3]))%599
		workers := int(b[3]%3) + 1
		beta := float64(b[4]) / 255
		lattShare, res := int(b[5]%8), int(b[5]>>3)+1
		dupShare, spread := int(b[6]%8), float64(b[6]>>3+1)/32
		seed := binary.LittleEndian.Uint64(b[7:15])

		sigma := 1 / math.Sqrt(float64(n))
		pl := pool.New(workers)
		defer pl.Close()
		// build constructs and binds the matcher the input names over pop.
		build := func(pop *population.Population) Matcher {
			var m Matcher
			var err error
			switch topo {
			case 0:
				m, err = NewTorus(sigma)
			case 1:
				m, err = NewGrid(sigma)
			case 2:
				m, err = NewRing(sigma)
			default:
				m, err = NewSmallWorld(sigma, beta)
			}
			if err != nil {
				t.Fatal(err)
			}
			m.(Binder).Bind(pop, prng.New(seed))
			if sw, ok := m.(*SmallWorld); ok {
				switch ctl {
				case 1:
					sw.SetRewireController(halfController{RewireForce})
				case 2:
					sw.SetRewireController(halfController{RewireDeny})
				case 3:
					sw.SetRewireController(forceAllTargeter{
						center: population.Point{X: 0.5},
						r:      float64(b[0]>>4) / 32,
					})
				}
			}
			m.(PoolSetter).SetPool(pl)
			return m
		}
		pop := population.New(n)
		m := build(pop)

		oneD := topo >= 2
		mut := prng.New(seed ^ 0x9e3779b97f4a7c15)
		coord := func() float64 {
			if r := mut.Intn(8); r < lattShare {
				return float64(mut.Intn(res)) / float64(res)
			}
			return wrap(0.5 + spread*(mut.Float64()-0.5))
		}
		// point draws a fresh position, or with the duplicate share a copy
		// of one of the first i.
		point := func(pos []population.Point, i int) population.Point {
			if i > 0 && mut.Intn(8) < dupShare {
				return pos[mut.Intn(i)]
			}
			pt := population.Point{X: coord()}
			if !oneD {
				pt.Y = coord()
			}
			return pt
		}
		ps := positionsOf(t, m)
		for i := range n {
			ps.SetAt(i, point(ps.Slice(), i))
		}
		snap := snapshotSpatial(pop, m)

		src, ref := prng.New(seed+1), prng.New(seed+1)
		for round := range 3 {
			if round > 0 {
				op := b[14+round]
				switch op % 8 {
				case 6:
					blob := snapshotSpatial(pop, m)
					pop = population.New(0)
					m = build(pop)
					restoreSpatial(t, pop, m, blob)
				case 7:
					restoreSpatial(t, pop, m, snap)
				default:
					reshape(pop, positionsOf(t, m), op, mut, point)
				}
			}
			n := pop.Len()
			var p Pairing
			m.SampleMatch(pop, src, &p)
			if err := p.Validate(); err != nil {
				t.Fatalf("sample %d: invalid pairing: %v", round, err)
			}
			comparePairings(t, fmt.Sprintf("%s sample %d", m.Name(), round), p.Nbr,
				referenceOf(m, positionsOf(t, m).Slice(), ref.Perm(n)))
		}
	})
}

// reshape applies one fuzzed operation other than a snapshot to the
// population; op%8 picks it and op>>3 scales it. Every operation leaves at
// least two agents, and point draws the positions it writes or queues.
//
//	0 none;
//	1 SetAt of op>>3 + 1 random agents;
//	2 op>>3 + 1 Inserts, every other one at a queued point;
//	3 DeleteSwap of up to op>>3 + 1 random agents;
//	4 Apply: by op>>3 %4, every agent keeps; one random agent dies and
//	  another splits; or each dies or splits with probability 1/8;
//	5 ForceResize to 2 + (n + 37·(op>>3)) % 599 agents.
func reshape(pop *population.Population, ps *population.Positions, op byte, mut *prng.Source,
	point func(pos []population.Point, i int) population.Point) {
	a := int(op >> 3)
	switch op % 8 {
	case 1:
		for range a + 1 {
			ps.SetAt(mut.Intn(pop.Len()), point(ps.Slice(), pop.Len()))
		}
	case 2:
		for k := range a + 1 {
			if k%2 == 0 {
				ps.QueuePlacement(point(ps.Slice(), pop.Len()))
			}
			pop.Insert(agent.State{})
		}
	case 3:
		for k := 0; k <= a && pop.Len() > 2; k++ {
			pop.DeleteSwap(mut.Intn(pop.Len()))
		}
	case 4:
		n := pop.Len()
		actions := make([]population.Action, n)
		switch a % 4 {
		case 0:
			// Every agent keeps.
		case 1:
			// One death and one split: n holds, the layout does not.
			i := mut.Intn(n)
			actions[i] = population.ActDie
			actions[(i+1+mut.Intn(n-1))%n] = population.ActSplit
		default:
			deaths := 0
			for i := range actions {
				switch mut.Intn(8) {
				case 0:
					if deaths < n-2 {
						actions[i] = population.ActDie
						deaths++
					}
				case 1:
					actions[i] = population.ActSplit
				}
			}
		}
		pop.Apply(actions)
	case 5:
		pop.ForceResize(2+(pop.Len()+37*a)%599, 0)
	}
}

// snapshotSpatial encodes the population and the matcher's state.
func snapshotSpatial(pop *population.Population, m Matcher) []byte {
	e := wire.NewEnc()
	e.Begin(1)
	pop.EncodeState(e)
	m.(Stateful).EncodeState(e)
	e.End()
	return e.Finish()
}

// restoreSpatial decodes a snapshotSpatial blob into pop and its bound
// matcher.
func restoreSpatial(t *testing.T, pop *population.Population, m Matcher, blob []byte) {
	t.Helper()
	d, err := wire.NewDec(blob)
	if err != nil {
		t.Fatal(err)
	}
	d.Begin(1)
	if err := pop.DecodeState(d); err != nil {
		t.Fatal(err)
	}
	if err := m.(Stateful).DecodeState(d); err != nil {
		t.Fatal(err)
	}
	d.End()
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
}

// referenceOf is referenceSpatialSample over m's geometry and rewrite hook.
func referenceOf(m Matcher, pos []population.Point, order []int) []int32 {
	n := len(pos)
	switch m := m.(type) {
	case *Torus:
		return referenceSpatialSample(torusGeom{}.prepare(n), pos, order, nil, 0)
	case *Grid:
		return referenceSpatialSample(gridGeom{}.prepare(n), pos, order, nil, 0)
	case *Ring:
		return referenceSpatialSample(ringGeom{}.prepare(n), pos, order, nil, 0)
	case *SmallWorld:
		return referenceSpatialSample(ringGeom{}.prepare(n), pos, order, m.rewrite, m.calls)
	}
	panic(fmt.Sprintf("not a spatial matcher: %T", m))
}
