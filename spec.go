package popstab

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"popstab/internal/adversary"
	"popstab/internal/baseline"
	"popstab/internal/match"
	"popstab/internal/params"
	"popstab/internal/population"
	"popstab/internal/protocol"
	"popstab/internal/rogue"
	"popstab/internal/sim"
	"popstab/internal/wire"
)

// BallSpec is a patch ball of the topology: center (X; Y on 2-D
// topologies) and radius (arc half-length in 1-D). It parameterizes the
// spatial adversary family (Spec.Patch) and clustered rogue infiltration
// (RogueSpec.Cluster).
type BallSpec struct {
	X float64 `json:"x"`
	Y float64 `json:"y,omitempty"`
	R float64 `json:"r"`
}

// center returns the ball's center as a topology point.
func (b BallSpec) center() population.Point { return population.Point{X: b.X, Y: b.Y} }

// check rejects a ball (nil passes) whose center is off the closed unit
// square or whose radius is negative or infinite; NaN fails both. Patch
// draws wrap or reflect into the square, but a radius-0 ball places agents
// exactly at its center and an infinite radius at NaN. With the check,
// every position a valid spec produces lies on the square, the domain
// restore holds snapshots to (DESIGN.md §8).
func (b *BallSpec) check(field string) error {
	switch {
	case b == nil:
		return nil
	case !(b.X >= 0 && b.X <= 1 && b.Y >= 0 && b.Y <= 1):
		return fmt.Errorf("popstab: %s center (%v, %v) outside the unit square", field, b.X, b.Y)
	case !(b.R >= 0) || math.IsInf(b.R, 1):
		return fmt.Errorf("popstab: %s radius %v is not finite and non-negative", field, b.R)
	}
	return nil
}

// RogueSpec enables the §1.2 malicious-program extension: rogue agents that
// ignore the protocol and replicate at a bounded rate, with honest agents
// detecting and removing foreign programs on contact.
type RogueSpec struct {
	// ReplicateEvery is the rogue replication period R ≥ 1.
	ReplicateEvery int `json:"replicate_every"`
	// DetectProb is the per-contact detection probability in [0, 1] (the
	// paper assumes 1).
	DetectProb float64 `json:"detect_prob"`
	// InitialRogues seeds the system with this many rogues.
	InitialRogues int `json:"initial_rogues,omitempty"`
	// RoguesPerEpoch inserts this many additional rogues at every epoch
	// boundary.
	RoguesPerEpoch int `json:"rogues_per_epoch,omitempty"`
	// Cluster, when non-nil, places every rogue insertion (initial cohort
	// and per-epoch infiltration) inside the ball instead of at oblivious
	// uniform positions — adversary-chosen placement, the A9 patch-attack
	// seeding. Requires a spatial Topology.
	Cluster *BallSpec `json:"cluster,omitempty"`
}

// Spec is the only way to configure a run: a fully declarative,
// JSON-serializable value in which every axis is a value (strategy,
// protocol and topology by registry name). A Spec can therefore cross a
// network or a process boundary and be canonically hashed; the serving
// layer (internal/serve) accepts Specs as job submissions and dedupes
// identical ones by Hash. Zero fields take the paper's defaults.
type Spec struct {
	// N is the population target (power of four, ≥ 4096).
	N int `json:"n"`
	// Tinner overrides the recruitment subphase length (0 = paper log²N).
	// Must be ω(log N); see Params.
	Tinner int `json:"tinner,omitempty"`
	// Gamma is the matched fraction per round (0 = 1/4).
	Gamma float64 `json:"gamma,omitempty"`
	// Alpha is the admissible half-width (0 = 1/2).
	Alpha float64 `json:"alpha,omitempty"`
	// Protocol selects the per-agent program by name: paper (default; the
	// population stability protocol, Algorithms 1–7), attempt1 (the
	// non-interactive leader election baseline of §1.3.1), attempt2 (the
	// independent coloring baseline of §1.3.1) or empty (do nothing).
	Protocol string `json:"protocol,omitempty"`
	// Selfish wraps the protocol in the selfish-replicator variant:
	// activated agents ignore the protocol's verdict and split at every
	// opportunity (sim.SelfishReplicator). A negative control for the
	// stability results — the population escapes the admissible interval
	// without any adversary budget.
	Selfish bool `json:"selfish,omitempty"`
	// MessageBits selects the paper protocol's wire codec: 3 (default,
	// Theorem 2's encoding) or 4 (the reference encoding).
	MessageBits int `json:"message_bits,omitempty"`
	// Topology selects the communication topology by name, in decreasing
	// order of mixing: mixed (default; the model's uniform γ-matching),
	// torus (nearest-neighbor matching on the unit 2-torus, daughters next
	// to their parent — §1.2 "Alternate communication models"), grid (the
	// unit square, with boundary effects instead of wraparound), ring (the
	// unit circle) or smallworld (ring with Watts-Strogatz rewiring, see
	// RewireProb). All spatial topologies share the sharded matching
	// pipeline of internal/match.
	Topology string `json:"topology,omitempty"`
	// DaughterSpread is the daughter-placement spread as a fraction of the
	// mean inter-agent spacing — 1/√N on the 2-D topologies (torus, grid),
	// 1/N on the 1-D ones (ring, smallworld). 0 = 1.0; spatial topologies
	// only.
	DaughterSpread float64 `json:"daughter_spread,omitempty"`
	// RewireProb is the Watts-Strogatz rewiring probability β in [0, 1]
	// (0 = 0.1; smallworld only).
	RewireProb float64 `json:"rewire_prob,omitempty"`
	// Adversary selects a strategy by registry name (AdversaryNames or
	// SpatialAdversaryNames; empty = none). Every strategy observes the
	// full memory of every agent (the model's full-information adversary)
	// and is budget-limited by K and PerEpochBudget.
	Adversary string `json:"adversary,omitempty"`
	// Patch is the ball spatial strategies act on.
	Patch *BallSpec `json:"patch,omitempty"`
	// K is the adversary's per-round alteration budget (≥ 0).
	K int `json:"k,omitempty"`
	// PerEpochBudget, when positive, paces the adversary so it spends
	// roughly this many alterations per epoch (with K, at least 1, per
	// action); this is the budget normalization the paper's lemmas use
	// (K·T = Θ(N^{1/4})).
	PerEpochBudget int `json:"per_epoch_budget,omitempty"`
	// Rogue enables the malicious-program extension on top of the selected
	// protocol and topology.
	Rogue *RogueSpec `json:"rogue,omitempty"`
	// InitialSize overrides the starting population (0 = N).
	InitialSize int `json:"initial_size,omitempty"`
	// Seed derives all randomness; runs are fully deterministic in it.
	Seed uint64 `json:"seed"`
	// Workers shards the engine's per-agent phases: 0 means
	// runtime.NumCPU(), 1 forces the serial path. It is a pure throughput
	// knob — output is bit-identical across worker counts — and is
	// therefore EXCLUDED from Hash: submissions differing only in Workers
	// are the same simulation.
	Workers int `json:"workers,omitempty"`
}

// Params derives the protocol parameterization the spec implies (N, the
// epoch shape, γ, α) without building anything.
func (sp Spec) Params() (Params, error) {
	var opts []params.Option
	if sp.Tinner > 0 {
		opts = append(opts, params.WithTinner(sp.Tinner))
	}
	if sp.Gamma > 0 {
		opts = append(opts, params.WithGamma(sp.Gamma))
	}
	if sp.Alpha > 0 {
		opts = append(opts, params.WithAlpha(sp.Alpha))
	}
	p, err := params.Derive(sp.N, opts...)
	if err != nil {
		return Params{}, fmt.Errorf("popstab: %w", err)
	}
	return p, nil
}

// plan is a resolved Spec: its canonical form plus every part of the run
// that is cheap to build, already validated. Only the program (whose
// per-round tables scale with the epoch) and the engine (which scales with
// the population) remain for build.
type plan struct {
	spec  Spec       // normalized
	sim   sim.Config // all but Protocol; Adversary not yet paced
	rogue *rogue.Config
}

// resolve is the one place a Spec is checked: Normalize and New both call
// it, so a spec normalizes if and only if it builds.
func (sp Spec) resolve() (*plan, error) {
	p, err := sp.Params()
	if err != nil {
		return nil, err
	}
	proto, topo := cmp.Or(sp.Protocol, "paper"), cmp.Or(sp.Topology, "mixed")
	spatialTopo := topo != "mixed"
	switch {
	case !slices.Contains([]string{"paper", "attempt1", "attempt2", "empty"}, proto):
		return nil, fmt.Errorf("popstab: unknown protocol %q", sp.Protocol)
	case !slices.Contains([]string{"mixed", "torus", "grid", "ring", "smallworld"}, topo):
		return nil, fmt.Errorf("popstab: unknown topology %q", sp.Topology)
	case sp.MessageBits != 0 && sp.MessageBits != 3 && sp.MessageBits != 4:
		return nil, fmt.Errorf("popstab: unsupported MessageBits %d (3 or 4)", sp.MessageBits)
	case sp.K < 0:
		return nil, fmt.Errorf("popstab: negative adversary budget K %d", sp.K)
	case sp.PerEpochBudget < 0:
		return nil, fmt.Errorf("popstab: negative PerEpochBudget %d", sp.PerEpochBudget)
	case sp.InitialSize < 0:
		return nil, fmt.Errorf("popstab: negative InitialSize %d", sp.InitialSize)
	case sp.Workers < 0:
		return nil, fmt.Errorf("popstab: negative Workers %d", sp.Workers)
	case !spatialTopo && sp.DaughterSpread != 0:
		return nil, fmt.Errorf("popstab: DaughterSpread requires a spatial topology")
	case !(sp.DaughterSpread >= 0):
		return nil, fmt.Errorf("popstab: negative DaughterSpread %v", sp.DaughterSpread)
	case topo != "smallworld" && sp.RewireProb != 0:
		return nil, fmt.Errorf("popstab: RewireProb requires Topology: smallworld")
	case !(sp.RewireProb >= 0 && sp.RewireProb <= 1):
		return nil, fmt.Errorf("popstab: RewireProb %v outside [0, 1]", sp.RewireProb)
	case !spatialTopo && sp.Rogue != nil && sp.Rogue.Cluster != nil:
		return nil, fmt.Errorf("popstab: Rogue.Cluster requires a spatial topology")
	}
	if err := sp.Patch.check("Patch"); err != nil {
		return nil, err
	}
	if sp.Rogue != nil {
		if err := sp.Rogue.Cluster.check("Rogue.Cluster"); err != nil {
			return nil, err
		}
	}

	out := sp
	out.Tinner, out.Gamma, out.Alpha = p.Tinner, p.Gamma, p.Alpha
	out.Protocol, out.Topology = proto, topo
	if out.MessageBits == 0 || proto != "paper" {
		// Only the paper protocol has a wire codec; the baselines ignore it.
		out.MessageBits = 3
	}
	if spatialTopo && out.DaughterSpread == 0 {
		out.DaughterSpread = 1
	}
	if topo == "smallworld" && out.RewireProb == 0 {
		out.RewireProb = 0.1
	}
	if out.InitialSize == 0 {
		out.InitialSize = sp.N
	}
	if out.Adversary == "" {
		out.Adversary = "none"
	}

	pl := &plan{sim: sim.Config{
		Params:      p,
		Seed:        sp.Seed,
		InitialSize: out.InitialSize,
		Workers:     sp.Workers,
	}}
	if spatialTopo {
		if pl.sim.Matcher, err = newMatcher(topo, p.N, out.DaughterSpread, out.RewireProb); err != nil {
			return nil, fmt.Errorf("popstab: %w", err)
		}
	}

	spatial, blind := spatialAdversaries[out.Adversary], adversaries[out.Adversary]
	switch {
	case out.Adversary == "none":
		out.Patch, out.K, out.PerEpochBudget = nil, 0, 0
	case spatial != nil:
		// Spatial strategy with the implicit zero ball: canonicalize so nil
		// and an explicit zero ball hash identically.
		if out.Patch == nil {
			out.Patch = &BallSpec{}
		}
		pl.sim.Adversary = spatial(*out.Patch)
	case blind != nil:
		// Only the spatial family reads the patch ball; a stray Patch on a
		// position-blind strategy describes the identical simulation and
		// must hash identically.
		out.Patch = nil
		pl.sim.Adversary = blind(p)
	default:
		return nil, fmt.Errorf("popstab: unknown adversary %q (position-blind: %v; spatial: %v)",
			sp.Adversary, AdversaryNames(), SpatialAdversaryNames())
	}
	if out.PerEpochBudget > 0 && out.K == 0 {
		// A paced action alters at least one agent: K 0 runs as K 1.
		out.K = 1
	}
	// The engine is built from the canonical values, so specs with equal
	// hashes build engines whose snapshots are interchangeable.
	pl.sim.K = out.K

	if rs := sp.Rogue; rs != nil {
		rc := rogue.Config{
			ReplicateEvery: rs.ReplicateEvery,
			DetectProb:     rs.DetectProb,
			InitialRogues:  rs.InitialRogues,
			RoguesPerEpoch: rs.RoguesPerEpoch,
		}
		if rs.Cluster != nil {
			rc.Cluster = &rogue.ClusterSpec{Center: rs.Cluster.center(), Radius: rs.Cluster.R}
		}
		if err := rc.Validate(); err != nil {
			return nil, fmt.Errorf("popstab: %w", err)
		}
		pl.rogue = &rc
	}
	pl.spec = out
	return pl, nil
}

// newMatcher builds a spatial topology's matcher; resolve has already
// rejected unknown names, so smallworld is the default case. The daughter
// spread is in units of the mean inter-agent spacing: 1/√N on the 2-D
// topologies, 1/N on the 1-D ones.
func newMatcher(topo string, n int, spread, beta float64) (match.Matcher, error) {
	sigma2 := spread / math.Sqrt(float64(n))
	sigma1 := spread / float64(n)
	switch topo {
	case "torus":
		return match.NewTorus(sigma2)
	case "grid":
		return match.NewGrid(sigma2)
	case "ring":
		return match.NewRing(sigma1)
	default:
		return match.NewSmallWorld(sigma1, beta)
	}
}

// build assembles the simulation a resolved plan describes.
func (pl *plan) build() (*Sim, error) {
	p := pl.sim.Params
	s := &Sim{params: p}
	var (
		stepper sim.Stepper
		err     error
	)
	switch pl.spec.Protocol {
	case "paper":
		var opts []protocol.Option
		if pl.spec.MessageBits == 4 {
			opts = append(opts, protocol.WithCodec(wire.FourBit{}))
		}
		s.proto, err = protocol.New(p, opts...)
		stepper = s.proto
	case "attempt1":
		stepper, err = baseline.NewAttempt1(p)
	case "attempt2":
		stepper, err = baseline.NewAttempt2(p)
	case "empty":
		stepper = baseline.Empty{}
	}
	if err != nil {
		return nil, fmt.Errorf("popstab: %w", err)
	}
	if pl.spec.Selfish {
		stepper = sim.NewSelfishReplicator(stepper)
	}
	s.epochLen = stepper.EpochLen()

	sc := pl.sim
	sc.Protocol = stepper
	if sc.Adversary != nil && pl.spec.PerEpochBudget > 0 {
		sc.Adversary = adversary.NewPaced(adversary.PerEpoch(s.epochLen, pl.spec.PerEpochBudget, sc.K), sc.Adversary)
	}
	if pl.rogue != nil {
		re, err := rogue.New(sc, *pl.rogue)
		if err != nil {
			return nil, fmt.Errorf("popstab: %w", err)
		}
		s.eng, s.overlay = re.Engine, re.Overlay()
		return s, nil
	}
	if s.eng, err = sim.New(sc); err != nil {
		return nil, fmt.Errorf("popstab: %w", err)
	}
	return s, nil
}

// Normalize resolves every defaulted field to its canonical value, so that
// two specs describing the same simulation normalize identically ("" and
// "paper" are the same protocol; Gamma 0 and 0.25 the same matching rate).
// It validates on the way, through the same resolve step New builds from:
// a spec normalizes if and only if it builds.
func (sp Spec) Normalize() (Spec, error) {
	pl, err := sp.resolve()
	if err != nil {
		return Spec{}, err
	}
	return pl.spec, nil
}

// Hash returns the canonical content address of the simulation the spec
// describes: a hex SHA-256 over the normalized spec with Workers cleared.
// Equal hashes mean bit-identical simulations (same trajectory, same
// stats, interchangeable snapshots), which is what lets the serving layer
// dedupe submissions.
func (sp Spec) Hash() (string, error) {
	norm, err := sp.Normalize()
	if err != nil {
		return "", err
	}
	norm.Workers = 0
	blob, err := json.Marshal(norm)
	if err != nil {
		return "", fmt.Errorf("popstab: %w", err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:]), nil
}
