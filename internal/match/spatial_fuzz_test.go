package match

import (
	"encoding/binary"
	"math"
	"testing"

	"popstab/internal/population"
	"popstab/internal/prng"
)

// referenceSpatialSample is the unpruned greedy walk over any geometry —
// referenceNearestSample generalized over the geometry seam: it visits the
// agents in order, and each unmatched agent takes the first unmatched
// agent of its rewritten list when the rewrite hook (nil for none) replaces
// it, and otherwise the nearest unmatched agent of its whole neighborhood
// under the geometry's metric, ties broken by scan order (neighborhood
// cells in order, agents ascending within a cell) via the strict `<`
// minimum. It keeps no candidate rows, so nothing in it is pruned.
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
// pruning: SampleMatch's pairing must equal the unpruned
// referenceSpatialSample's under the same visit order and rewrite hook.
// The input bytes (zero-padded to 15) choose:
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
//	data[7:15]  the seed of the positions, the bind and the visit order.
//
// At n ≤ 600 the sharded phases run as one shard whatever the worker count;
// worker invariance at sizes that split is TestSpatialShapesBitIdentical's.
//
// The seed corpus lives in testdata/fuzz/FuzzSpatialMatch; plain go test
// runs it. Explore with:
// go test -run '^$' -fuzz '^FuzzSpatialMatch$' -fuzztime 30s ./internal/match
func FuzzSpatialMatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var b [15]byte
		copy(b[:], data)
		topo, ctl := b[0]%4, (b[0]>>2)%4
		n := 2 + int(binary.LittleEndian.Uint16(b[1:3]))%599
		workers := int(b[3]%3) + 1
		beta := float64(b[4]) / 255
		lattShare, res := int(b[5]%8), int(b[5]>>3)+1
		dupShare, spread := int(b[6]%8), float64(b[6]>>3+1)/32
		seed := binary.LittleEndian.Uint64(b[7:15])

		sigma := 1 / math.Sqrt(float64(n))
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
		pop := population.New(n)
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
		oneD := topo >= 2
		pos := positionsOf(t, m).Slice()
		mut := prng.New(seed ^ 0x9e3779b97f4a7c15)
		coord := func() float64 {
			if r := mut.Intn(8); r < lattShare {
				return float64(mut.Intn(res)) / float64(res)
			}
			return wrap(0.5 + spread*(mut.Float64()-0.5))
		}
		for i := range pos {
			if i > 0 && mut.Intn(8) < dupShare {
				pos[i] = pos[mut.Intn(i)]
				continue
			}
			pos[i] = population.Point{X: coord()}
			if !oneD {
				pos[i].Y = coord()
			}
		}

		defer withPool(m, workers)()
		var p Pairing
		m.SampleMatch(pop, prng.New(seed+1), &p)
		if err := p.Validate(); err != nil {
			t.Fatalf("invalid pairing: %v", err)
		}
		order := prng.New(seed + 1).Perm(n)
		var want []int32
		switch m := m.(type) {
		case *Torus:
			want = referenceSpatialSample(torusGeom{}.prepare(n), pos, order, nil, 0)
		case *Grid:
			want = referenceSpatialSample(gridGeom{}.prepare(n), pos, order, nil, 0)
		case *Ring:
			want = referenceSpatialSample(ringGeom{}.prepare(n), pos, order, nil, 0)
		case *SmallWorld:
			want = referenceSpatialSample(ringGeom{}.prepare(n), pos, order, m.rewrite, m.calls)
		}
		comparePairings(t, m.Name(), p.Nbr, want)
	})
}
