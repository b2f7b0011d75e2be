package match

import (
	"fmt"
	"math"

	"popstab/internal/population"
	"popstab/internal/prng"
)

// Grid is the bounded planar spatial communication model: agents live in
// the unit square under the ordinary Euclidean metric — the non-wrapping
// analogue of Torus. Locality is the same O(1/√n) scale, but the square has
// a boundary: edge and corner agents see truncated neighborhoods (5 or 4
// cells instead of 9), so coverage and mixing are slightly worse near the
// rim — the boundary-effect axis of the topology gallery. Daughters appear
// next to their parent (Gaussian offset reflected back into the square);
// inserted agents appear at fresh uniform positions. Matching runs on the
// sharded spatial pipeline (spatial.go).
type Grid struct {
	// Sigma is the standard deviation of a daughter's offset from its
	// parent, in square units (callers usually derive it from the mean
	// inter-agent spacing 1/√N).
	Sigma float64

	spatial[gridGeom]
}

var (
	_ Matcher    = (*Grid)(nil)
	_ Binder     = (*Grid)(nil)
	_ PoolSetter = (*Grid)(nil)
	_ Space      = (*Grid)(nil)
)

// NewGrid validates sigma and returns an unbound Grid matcher.
func NewGrid(sigma float64) (*Grid, error) {
	if sigma <= 0 || math.IsNaN(sigma) || math.IsInf(sigma, 0) {
		return nil, fmt.Errorf("match: grid sigma %v not positive and finite", sigma)
	}
	return &Grid{Sigma: sigma}, nil
}

// Bind implements Binder: initial and inserted agents uniform in the
// square, daughters Gaussian around their parent (reflected at the walls).
func (g *Grid) Bind(pop *population.Population, src *prng.Source) {
	g.bind(pop, src,
		func() population.Point {
			return population.Point{X: src.Float64(), Y: src.Float64()}
		},
		g.daughter)
}

// MinFraction reports 0: nearest-neighbor matching gives no hard per-round
// coverage guarantee.
func (g *Grid) MinFraction() float64 { return 0 }

// Name reports "grid(σ)".
func (g *Grid) Name() string { return fmt.Sprintf("grid(%.3g)", g.Sigma) }

// daughter places a daughter near its parent, reflecting the Gaussian
// offset at the square's walls (reflection, not clamping, so daughters do
// not pile up on the boundary).
func (g *Grid) daughter(parent population.Point) population.Point {
	dx, dy := gaussianOffset(g.src, g.Sigma)
	return population.Point{X: reflect01(parent.X + dx), Y: reflect01(parent.Y + dy)}
}

// reflect01 folds a coordinate back into [0, 1) by reflection at the walls.
func reflect01(v float64) float64 {
	v = math.Mod(math.Abs(v), 2)
	if v >= 1 {
		v = 2 - v
	}
	if v >= 1 { // v was exactly an even integer: 2-0 = 2 folds to 0
		v = 0
	}
	return v
}

// EuclidDist2 is the squared Euclidean distance between two points of the
// unit square (no wrapping).
func EuclidDist2(a, b population.Point) float64 {
	dx := a.X - b.X
	dy := a.Y - b.Y
	return dx*dx + dy*dy
}

// gridGeom is the bounded 2-D geometry: a √n × √n bucket grid whose
// neighborhoods truncate at the boundary instead of wrapping.
type gridGeom struct{ side int }

var _ geometry[gridGeom] = gridGeom{}

func (gridGeom) prepare(n int) gridGeom {
	side := int(math.Sqrt(float64(n)))
	if side < 1 {
		side = 1
	}
	return gridGeom{side: side}
}

func (g gridGeom) numCells() int { return g.side * g.side }

func (g gridGeom) cell(pt population.Point) int32 {
	cx := int(pt.X * float64(g.side))
	cy := int(pt.Y * float64(g.side))
	if cx >= g.side {
		cx = g.side - 1
	}
	if cy >= g.side {
		cy = g.side - 1
	}
	if cx < 0 {
		cx = 0
	}
	if cy < 0 {
		cy = 0
	}
	return int32(cy*g.side + cx)
}

func (g gridGeom) neighborhood(c int32, buf []int32) []int32 {
	side := g.side
	cx, cy := int(c)%side, int(c)/side
	for dy := -1; dy <= 1; dy++ {
		gy := cy + dy
		if gy < 0 || gy >= side {
			continue
		}
		for dx := -1; dx <= 1; dx++ {
			gx := cx + dx
			if gx < 0 || gx >= side {
				continue
			}
			buf = append(buf, int32(gy*side+gx))
		}
	}
	return buf
}

func (gridGeom) dist2(a, b population.Point) float64 { return EuclidDist2(a, b) }

// patch draws uniformly in the disc of radius r around center and reflects
// at the square's walls (same folding rule as daughter placement).
func (gridGeom) patch(src *prng.Source, center population.Point, r float64) population.Point {
	if r <= 0 {
		return center
	}
	rho := r * math.Sqrt(src.Float64())
	theta := 2 * math.Pi * src.Float64()
	return population.Point{
		X: reflect01(center.X + rho*math.Cos(theta)),
		Y: reflect01(center.Y + rho*math.Sin(theta)),
	}
}
