package match

import (
	"fmt"
	"testing"

	"popstab/internal/population"
	"popstab/internal/prng"
)

// TestSpatialCSRLayout builds the rows once and checks the cell-sorted
// layout the scatter leaves behind, against the positions alone:
// cellStart is the exclusive prefix of the per-cell counts, cellAgents
// lists each cell's agents in ascending index order, and cellIdx maps every
// agent to its slot (posByCell[cellIdx[i]] == pos[i], cellAgents[cellIdx[i]]
// == i). The digests pin the layout only through the pairings it yields;
// this names the slot an off-by-one in the scatter's cursor shift would
// move.
func TestSpatialCSRLayout(t *testing.T) {
	shapes := map[string]func(mut *prng.Source) population.Point{
		"uniform": func(mut *prng.Source) population.Point {
			return population.Point{X: mut.Float64(), Y: mut.Float64()}
		},
		// All agents share one cell; every other cell is empty.
		"onecell": func(*prng.Source) population.Point { return population.Point{X: 0.25, Y: 0.25} },
		// The upper half of the cells, the trailing ones in cell order,
		// stay empty.
		"lowhalf": func(mut *prng.Source) population.Point {
			return population.Point{X: 0.5 * mut.Float64(), Y: 0.5 * mut.Float64()}
		},
		// Every agent sits in the last cell, after all the empty ones.
		"lastcell": func(*prng.Source) population.Point { return population.Point{X: 1, Y: 1} },
	}
	for _, name := range []string{"torus", "grid", "ring"} {
		for _, n := range []int{2, 3, 100, 2048, 5000} {
			for shape, at := range shapes {
				workers := 1
				if n >= 2048 {
					workers = 3
				}
				label := fmt.Sprintf("%s n=%d %s workers=%d", name, n, shape, workers)
				m, pop := buildSpatial(t, name, n, uint64(n))
				ps := positionsOf(t, m)
				mut := prng.New(uint64(n) * 7)
				for i := 0; i < n; i++ {
					ps.SetAt(i, at(mut))
				}
				closePool := withPool(m, workers)
				var p Pairing
				m.SampleMatch(pop, prng.New(1), &p)
				closePool()
				switch v := m.(type) {
				case *Torus:
					checkCSRLayout(t, label, &v.spatial)
				case *Grid:
					checkCSRLayout(t, label, &v.spatial)
				case *Ring:
					checkCSRLayout(t, label, &v.spatial)
				}
			}
		}
	}
}

// checkCSRLayout checks s's cell-sorted layout after one row build against
// a recount from the bound positions.
func checkCSRLayout[G geometry[G]](t *testing.T, label string, s *spatial[G]) {
	t.Helper()
	if s.stats.RowBuilds != 1 {
		t.Fatalf("%s: %d row builds, want 1", label, s.stats.RowBuilds)
	}
	pos := s.pos.Slice()
	n := len(pos)
	g := s.geo.prepare(n)
	ncells := g.numCells()
	count := make([]int32, ncells)
	for _, pt := range pos {
		count[g.cell(pt)]++
	}
	if len(s.cellStart) != ncells+1 || s.cellStart[0] != 0 {
		t.Fatalf("%s: cellStart has %d entries starting at %d, want %d starting at 0",
			label, len(s.cellStart), s.cellStart[0], ncells+1)
	}
	for c := range ncells {
		if got := s.cellStart[c+1] - s.cellStart[c]; got != count[c] {
			t.Fatalf("%s: cell %d spans [%d, %d), %d slots for %d agents",
				label, c, s.cellStart[c], s.cellStart[c+1], got, count[c])
		}
		for k := s.cellStart[c]; k < s.cellStart[c+1]; k++ {
			a := s.cellAgents[k]
			if g.cell(pos[a]) != int32(c) {
				t.Fatalf("%s: slot %d of cell %d holds agent %d of cell %d", label, k, c, a, g.cell(pos[a]))
			}
			if k > s.cellStart[c] && s.cellAgents[k-1] >= a {
				t.Fatalf("%s: cell %d lists agent %d after agent %d", label, c, a, s.cellAgents[k-1])
			}
		}
	}
	for i, pt := range pos {
		k := s.cellIdx[i]
		if s.cellAgents[k] != int32(i) || s.posByCell[k] != pt {
			t.Fatalf("%s: agent %d maps to slot %d, which holds agent %d at %v, want it at %v",
				label, i, k, s.cellAgents[k], s.posByCell[k], pt)
		}
	}
}
