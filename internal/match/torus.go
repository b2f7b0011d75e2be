package match

import (
	"fmt"
	"math"

	"popstab/internal/population"
	"popstab/internal/prng"
)

// Torus is the geometric communication model the paper sketches as an open
// question (§1.2, "Alternate communication models"): agents live at points
// of the unit 2-torus and each round are matched with a nearby agent instead
// of a uniformly random one. Daughters of a split appear next to their
// parent (cell division); inserted agents appear at fresh uniform positions
// (the adversary's choice is modeled as oblivious placement).
//
// Torus owns the position side-array: Bind registers a population.Positions
// tracker, so splits, deaths, adversarial insertions/deletions, and forced
// resizes all keep positions aligned without the engine knowing about
// geometry. Matching pairs each agent with the nearest unmatched agent in
// its 3×3 grid neighborhood, visiting agents in random order: coverage is
// high (most agents have a close unmatched neighbor) but pairs are strongly
// local — the property under test in experiments A5, A7, and A8. The
// matching runs on the sharded spatial pipeline (spatial.go): bucketing and
// candidate search shard across the engine's worker pool with output
// bit-identical to the serial algorithm for every worker count.
type Torus struct {
	// Sigma is the standard deviation of a daughter's offset from its
	// parent, in torus units (callers usually derive it from the mean
	// inter-agent spacing 1/√N).
	Sigma float64

	spatial[torusGeom]
}

var (
	_ Matcher    = (*Torus)(nil)
	_ Binder     = (*Torus)(nil)
	_ PoolSetter = (*Torus)(nil)
	_ Space      = (*Torus)(nil)
)

// NewTorus validates sigma and returns an unbound Torus matcher.
func NewTorus(sigma float64) (*Torus, error) {
	if sigma <= 0 || math.IsNaN(sigma) || math.IsInf(sigma, 0) {
		return nil, fmt.Errorf("match: torus sigma %v not positive and finite", sigma)
	}
	return &Torus{Sigma: sigma}, nil
}

// Bind implements Binder: it attaches the position side-array (initial and
// inserted agents uniform on the torus, daughters Gaussian around their
// parent) and keeps src for placement randomness. Bind must be called
// exactly once, before the first SampleMatch.
func (t *Torus) Bind(pop *population.Population, src *prng.Source) {
	t.bind(pop, src,
		func() population.Point {
			return population.Point{X: src.Float64(), Y: src.Float64()}
		},
		t.daughter)
}

// MinFraction reports 0: nearest-neighbor matching gives no hard per-round
// coverage guarantee (though realized coverage is high).
func (t *Torus) MinFraction() float64 { return 0 }

// Name reports "torus(σ)".
func (t *Torus) Name() string { return fmt.Sprintf("torus(%.3g)", t.Sigma) }

// daughter places a daughter near its parent: a Gaussian offset of standard
// deviation Sigma, wrapped onto the torus.
func (t *Torus) daughter(parent population.Point) population.Point {
	dx, dy := gaussianOffset(t.src, t.Sigma)
	return population.Point{X: wrap(parent.X + dx), Y: wrap(parent.Y + dy)}
}

// wrap reduces a coordinate into [0, 1).
func wrap(v float64) float64 {
	v = math.Mod(v, 1)
	if v < 0 {
		v++
	}
	return v
}

// TorusDist2 is the squared toroidal distance between two points.
func TorusDist2(a, b population.Point) float64 {
	dx := math.Abs(a.X - b.X)
	if dx > 0.5 {
		dx = 1 - dx
	}
	dy := math.Abs(a.Y - b.Y)
	if dy > 0.5 {
		dy = 1 - dy
	}
	return dx*dx + dy*dy
}

// torusGeom is the 2-D wrapped geometry: a √n × √n bucket grid with 3×3
// neighborhoods (wrapping at the edges) under the toroidal metric.
type torusGeom struct{ side int }

var _ geometry[torusGeom] = torusGeom{}

func (torusGeom) prepare(n int) torusGeom {
	side := int(math.Sqrt(float64(n)))
	if side < 1 {
		side = 1
	}
	return torusGeom{side: side}
}

func (g torusGeom) numCells() int { return g.side * g.side }

func (g torusGeom) cell(pt population.Point) int32 {
	cx := int(pt.X * float64(g.side))
	cy := int(pt.Y * float64(g.side))
	if cx >= g.side {
		cx = g.side - 1
	}
	if cy >= g.side {
		cy = g.side - 1
	}
	return int32(cy*g.side + cx)
}

func (g torusGeom) neighborhood(c int32, buf []int32) []int32 {
	side := g.side
	cx, cy := int(c)%side, int(c)/side
	if cx > 0 && cx < side-1 && cy > 0 && cy < side-1 {
		// Interior fast path (the overwhelming majority of cells): no
		// wrapping, rows are three consecutive ids — same scan order as
		// the general loop below, without the modulo arithmetic.
		for gy := cy - 1; gy <= cy+1; gy++ {
			row := int32(gy*side + cx)
			buf = append(buf, row-1, row, row+1)
		}
		return buf
	}
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			gx := (cx + dx + side) % side
			gy := (cy + dy + side) % side
			buf = append(buf, int32(gy*side+gx))
		}
	}
	return buf
}

func (torusGeom) dist2(a, b population.Point) float64 { return TorusDist2(a, b) }

// patch draws uniformly in the disc of radius r around center (area-uniform:
// ρ = r√u) and wraps onto the torus.
func (torusGeom) patch(src *prng.Source, center population.Point, r float64) population.Point {
	if r <= 0 {
		return center
	}
	rho := r * math.Sqrt(src.Float64())
	theta := 2 * math.Pi * src.Float64()
	return population.Point{
		X: wrap(center.X + rho*math.Cos(theta)),
		Y: wrap(center.Y + rho*math.Sin(theta)),
	}
}
