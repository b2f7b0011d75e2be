package match

import (
	"fmt"
	"math"

	"popstab/internal/population"
	"popstab/internal/prng"
)

// Ring is the 1-D spatial communication model: agents live on the unit
// circle (only Point.X is meaningful; Y is fixed to 0) and each round are
// matched with a nearby agent under the wrapped 1-D metric. It is the
// strongest-locality topology in the gallery — each agent's neighborhood is
// an O(1/n) arc — and the substrate SmallWorld rewires. Daughters appear
// next to their parent (1-D Gaussian offset of standard deviation Sigma);
// inserted agents appear at fresh uniform positions. Matching runs on the
// sharded spatial pipeline (spatial.go) with n buckets of expected
// occupancy 1 and 3-bucket neighborhoods.
type Ring struct {
	// Sigma is the standard deviation of a daughter's offset from its
	// parent, in circle units (callers usually derive it from the mean
	// inter-agent spacing 1/N).
	Sigma float64

	spatial[ringGeom]
}

var (
	_ Matcher    = (*Ring)(nil)
	_ Binder     = (*Ring)(nil)
	_ PoolSetter = (*Ring)(nil)
	_ Space      = (*Ring)(nil)
)

// NewRing validates sigma and returns an unbound Ring matcher.
func NewRing(sigma float64) (*Ring, error) {
	if sigma <= 0 || math.IsNaN(sigma) || math.IsInf(sigma, 0) {
		return nil, fmt.Errorf("match: ring sigma %v not positive and finite", sigma)
	}
	return &Ring{Sigma: sigma}, nil
}

// Bind implements Binder: initial and inserted agents uniform on the
// circle, daughters Gaussian around their parent.
func (r *Ring) Bind(pop *population.Population, src *prng.Source) {
	r.bind(pop, src,
		func() population.Point {
			return population.Point{X: src.Float64()}
		},
		r.daughter)
}

// MinFraction reports 0: nearest-neighbor matching gives no hard per-round
// coverage guarantee.
func (r *Ring) MinFraction() float64 { return 0 }

// Name reports "ring(σ)".
func (r *Ring) Name() string { return fmt.Sprintf("ring(%.3g)", r.Sigma) }

// daughter places a daughter near its parent on the circle. The 2-D
// Gaussian kernel's first coordinate is a 1-D Gaussian of the same σ.
func (r *Ring) daughter(parent population.Point) population.Point {
	dx, _ := gaussianOffset(r.src, r.Sigma)
	return population.Point{X: wrap(parent.X + dx)}
}

// RingDist2 is the squared wrapped distance between two points of the unit
// circle (X coordinates only).
func RingDist2(a, b population.Point) float64 {
	dx := math.Abs(a.X - b.X)
	if dx > 0.5 {
		dx = 1 - dx
	}
	return dx * dx
}

// ringGeom is the 1-D wrapped geometry: n buckets over [0, 1) with
// 3-bucket neighborhoods (wrapping at the ends) under the circle metric.
type ringGeom struct{ cells int }

var _ geometry[ringGeom] = ringGeom{}

func (ringGeom) prepare(n int) ringGeom {
	if n < 1 {
		n = 1
	}
	return ringGeom{cells: n}
}

func (g ringGeom) numCells() int { return g.cells }

func (g ringGeom) cell(pt population.Point) int32 {
	c := int(pt.X * float64(g.cells))
	if c >= g.cells {
		c = g.cells - 1
	}
	return int32(c)
}

func (g ringGeom) neighborhood(c int32, buf []int32) []int32 {
	for dx := -1; dx <= 1; dx++ {
		buf = append(buf, int32((int(c)+dx+g.cells)%g.cells))
	}
	return buf
}

func (ringGeom) dist2(a, b population.Point) float64 { return RingDist2(a, b) }

func (ringGeom) dist2Bits(p population.Point, pts []population.Point, out []uint64) {
	out = out[:len(pts)]
	for i, q := range pts {
		out[i] = math.Float64bits(RingDist2(p, q))
	}
}

// patch draws uniformly on the arc of half-length r around center (the 1-D
// ball: arc length 2r, capped at the full circle) and wraps.
func (ringGeom) patch(src *prng.Source, center population.Point, r float64) population.Point {
	if r <= 0 {
		return center
	}
	if r > 0.5 {
		r = 0.5
	}
	return population.Point{X: wrap(center.X + (2*src.Float64()-1)*r)}
}
