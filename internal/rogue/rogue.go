// Package rogue implements the paper's §1.2 extension ("Adversarial
// insertions"): an adversary that inserts agents running arbitrary
// *malicious programs* rather than protocol-following agents with bad state.
//
// The paper observes that plain population stability is impossible in this
// model — a malicious agent can simply ignore everyone and replicate at
// every opportunity — but that the protocol "can be extended to achieve
// population stability even if the adversary is allowed to insert agents
// that execute arbitrary malicious programs, as long as there is a bound on
// how frequently malicious agents can replicate and an agent is able to
// detect when it encounters an agent whose program is different from its
// own", given the added capability for agents to remove agents they
// encounter.
//
// This package models exactly that setting:
//
//   - every agent carries a Program tag (honest or rogue);
//   - rogue agents ignore the protocol and replicate once every
//     ReplicateEvery rounds (the rate bound);
//   - honest agents run the unmodified population stability protocol, but
//     when matched with an agent of a different program they detect it with
//     probability DetectProb and remove it (treating the interaction as ⊥
//     for their own protocol step);
//   - when detection fails, the honest agent processes the rogue's garbage
//     message like any other (a zero message: inactive, not recruiting, not
//     in the evaluation phase).
//
// Since the multi-layer unification (DESIGN.md §5) the package is no longer
// a forked engine: Overlay wraps any sim.Stepper as a sim.ExtendedStepper —
// the program tags and replication cooldowns live in a side-array kept
// aligned through population.Tracker, detection kills travel through the
// engine's neighbor-removal channel, and infiltration rides the StartRound
// hook. Engine is a thin constructor over the unified sim.Engine, so the
// extension inherits Workers sharding, counter-based per-agent randomness,
// RoundReport/EpochReport, adversary support, and arbitrary communication
// models (rogues on a spatial torus: sim.Config.Matcher) for free.
//
// The containment condition is a branching-process balance: a rogue doubles
// every R rounds and survives each round with probability 1 − γ·h·DetectProb
// (h = honest fraction), so its per-round log growth is
// ln2/R + ln(1 − γ·h·DetectProb). Rogues die out when
// R > R* = ln2 / (−ln(1 − γ·h·DetectProb)) and take over otherwise;
// experiment E17 measures the threshold (R* ≈ 2.41 at γ = 1/4, detect = 1).
package rogue

import (
	"errors"
	"fmt"
	"sync/atomic"

	"popstab/internal/agent"
	"popstab/internal/match"
	"popstab/internal/population"
	"popstab/internal/prng"
	"popstab/internal/protocol"
	"popstab/internal/sim"
	"popstab/internal/wire"
)

// Program identifies the code an agent runs. Detection compares Program
// values; the adversary cannot forge the honest Program (the paper assumes
// program difference is detectable on contact).
type Program uint8

// Programs.
const (
	// Honest runs the population stability protocol.
	Honest Program = iota
	// Rogue ignores the protocol and replicates at the bounded rate.
	Rogue
)

// meta is one agent's extension state: the program tag and the rogue
// replication cooldown. It lives in the Overlay's side-array, aligned with
// the population through the Tracker hooks.
type meta struct {
	// prog tags the agent's code.
	prog Program
	// cooldown counts rounds until a rogue may replicate again.
	cooldown uint32
}

// Stats accumulates extension-specific event counts. The overlay increments
// them atomically (the step phase may run concurrently across shards);
// totals are deterministic across worker counts.
type Stats struct {
	// RogueKills counts rogues removed by honest agents.
	RogueKills uint64
	// RogueSplits counts rogue replications.
	RogueSplits uint64
	// FailedDetections counts contacts where a rogue went unnoticed
	// (detection never false-positives in this model, so honest agents are
	// never removed by the guard).
	FailedDetections uint64
}

// Overlay wraps an inner per-agent program with the malicious-program
// semantics, turning the forked engine of the pre-unification design into a
// plain sim.ExtendedStepper. It also implements population.Tracker (the
// program side-array follows splits, kills, adversarial alterations, and
// forced resizes) and sim.RoundStarter (continuous infiltration at epoch
// boundaries). Attach it to the engine's population before the first round;
// New does all of this wiring.
type Overlay struct {
	inner          sim.Stepper
	epochLen       int
	replicateEvery uint32
	detectProb     float64
	roguesPerEpoch int

	meta  []meta
	stats Stats

	// positions and clusterPlace implement clustered infiltration (set by
	// New when Config.Cluster is given): every InsertRogue queues a
	// clusterPlace position on the matcher's side-array instead of taking
	// the oblivious uniform placement. Both are used only from serial
	// phases (construction and StartRound). clusterSrc is the private
	// placement stream clusterPlace consumes, kept addressable so
	// snapshots can capture and reinstate it.
	positions    *population.Positions
	clusterPlace func() population.Point
	clusterSrc   *prng.Source
	clusterSpec  *ClusterSpec
}

var (
	_ sim.ExtendedStepper = (*Overlay)(nil)
	_ sim.RoundStarter    = (*Overlay)(nil)
	_ population.Tracker  = (*Overlay)(nil)
)

// Stats returns the accumulated extension counters.
func (o *Overlay) Stats() Stats { return o.stats }

// Counts reports the honest and rogue populations.
func (o *Overlay) Counts() (honest, rogue int) {
	for i := range o.meta {
		if o.meta[i].prog == Rogue {
			rogue++
		} else {
			honest++
		}
	}
	return honest, rogue
}

// InsertRogue appends a fresh rogue agent (zero protocol state, full
// replication cooldown) to the population, at the clustered patch position
// when clustered infiltration is configured. The overlay must already be
// attached to pop.
func (o *Overlay) InsertRogue(pop *population.Population) {
	if o.clusterPlace != nil {
		o.positions.QueuePlacement(o.clusterPlace())
	}
	i := pop.Insert(agent.State{})
	o.meta[i] = meta{prog: Rogue, cooldown: o.replicateEvery}
}

// Len reports the side-array's length; population.CheckAligned uses it to
// validate restored snapshots against the agent count.
func (o *Overlay) Len() int { return len(o.meta) }

// EpochLen implements sim.ExtendedStepper with the inner program's epoch.
func (o *Overlay) EpochLen() int { return o.epochLen }

// Decode implements sim.ExtendedStepper.
func (o *Overlay) Decode(b uint8) wire.Message { return o.inner.Decode(b) }

// ComposeAt implements sim.ExtendedStepper: honest agents compose the inner
// protocol's message; rogues send garbage (a zero byte decodes to an
// inactive, non-recruiting, non-evaluating agent).
func (o *Overlay) ComposeAt(i int, s *agent.State) uint8 {
	if o.meta[i].prog != Honest {
		return 0
	}
	return o.inner.Compose(s)
}

// StepAt implements sim.ExtendedStepper.
//
// Rogues run the malicious program — ignore everyone, replicate as often as
// the rate bound allows — and consume no randomness. Honest agents first
// run the detection guard: on contact with a foreign program they draw the
// detection coin from their per-agent stream and, on success, remove the
// neighbor through the kill channel, treating the interaction as ⊥ for
// their own protocol step. Program tags are immutable within a round, so
// reading the neighbor's tag races with nothing; the neighbor's cooldown is
// written only by its owning shard and never read here.
func (o *Overlay) StepAt(i, j int, s *agent.State, nbr wire.Message, hasNbr bool, src *prng.Source) (population.Action, bool) {
	a := &o.meta[i]
	if a.prog == Rogue {
		if a.cooldown > 0 {
			a.cooldown--
		}
		if a.cooldown == 0 {
			a.cooldown = o.replicateEvery
			atomic.AddUint64(&o.stats.RogueSplits, 1)
			return population.ActSplit, false
		}
		return population.ActKeep, false
	}

	kill := false
	if hasNbr && o.meta[j].prog != a.prog {
		if src.Prob(o.detectProb) {
			kill = true
			atomic.AddUint64(&o.stats.RogueKills, 1)
			// The interaction is consumed by the removal: the honest
			// agent's own step sees no neighbor.
			hasNbr = false
			nbr = wire.Message{}
		} else {
			atomic.AddUint64(&o.stats.FailedDetections, 1)
		}
	}
	return o.inner.Step(s, nbr, hasNbr, src), kill
}

// StartRound implements sim.RoundStarter: continuous infiltration inserts
// RoguesPerEpoch fresh rogues at every epoch boundary, before the
// adversary's turn and the matching.
func (o *Overlay) StartRound(pop *population.Population, round uint64) {
	if o.roguesPerEpoch == 0 || round%uint64(o.epochLen) != 0 {
		return
	}
	for i := 0; i < o.roguesPerEpoch; i++ {
		o.InsertRogue(pop)
	}
}

// Attached implements population.Tracker: the initial population is honest.
func (o *Overlay) Attached(n int) {
	o.meta = make([]meta, n, n+n/2)
}

// Inserted implements population.Tracker: insertions default to the honest
// program (the base model's adversary inserts protocol-following agents
// with adversarial state; InsertRogue retags its own insertions).
func (o *Overlay) Inserted(i int) {
	if i != len(o.meta) {
		panic("rogue: Overlay out of sync with population on insert")
	}
	o.meta = append(o.meta, meta{})
}

// DeletedSwap implements population.Tracker.
func (o *Overlay) DeletedSwap(i, last int) {
	o.meta[i] = o.meta[last]
	o.meta = o.meta[:last]
}

// Applied implements population.Tracker: it replays Apply's compaction
// over the program side-array; daughters inherit their parent's post-step
// tag and cooldown (a splitting rogue's cooldown was re-armed in StepAt, so
// both copies wait a full period).
func (o *Overlay) Applied(actions []population.Action) {
	o.meta, _ = population.Compact(o.meta, actions, func(parent meta) meta { return parent })
}

// EncodeState implements sim.StateCodec: an identity fingerprint (the
// extension parameters and the inner program's type — two overlays with
// different replication rates or detection probabilities are different
// systems and must not exchange snapshots), the program side-array (tags
// and cooldowns), the accumulated extension counters, the
// clustered-placement stream when configured, and — by delegation — the
// inner protocol's state. Serial phases only.
func (o *Overlay) EncodeState(e *wire.Enc) {
	e.String(o.fingerprint())
	e.U64(uint64(len(o.meta)))
	for i := range o.meta {
		e.U8(uint8(o.meta[i].prog))
		e.U32(o.meta[i].cooldown)
	}
	e.U64(o.stats.RogueKills)
	e.U64(o.stats.RogueSplits)
	e.U64(o.stats.FailedDetections)
	e.Bool(o.clusterSrc != nil)
	if o.clusterSrc != nil {
		for _, w := range o.clusterSrc.State() {
			e.U64(w)
		}
	}
	if c, ok := o.inner.(sim.StateCodec); ok {
		c.EncodeState(e)
	}
}

// fingerprint renders the overlay's configuration identity for the
// snapshot check. InitialRogues is deliberately absent: it shapes only the
// construction-time state, which the snapshot overwrites wholesale.
func (o *Overlay) fingerprint() string {
	cluster := "none"
	if o.clusterSpec != nil {
		cluster = fmt.Sprintf("(%g,%g,r=%g)", o.clusterSpec.Center.X, o.clusterSpec.Center.Y, o.clusterSpec.Radius)
	}
	return fmt.Sprintf("rogue(R=%d,detect=%g,perEpoch=%d,cluster=%s,inner=%T)",
		o.replicateEvery, o.detectProb, o.roguesPerEpoch, cluster, o.inner)
}

// DecodeState implements sim.StateCodec on an overlay built from the same
// configuration.
func (o *Overlay) DecodeState(d *wire.Dec) error {
	if fp := d.String(); d.Err() == nil && fp != o.fingerprint() {
		return fmt.Errorf("rogue: snapshot overlay %q, engine has %q", fp, o.fingerprint())
	}
	n := d.Count(5, "rogue meta") // 5 payload bytes per meta record
	if err := d.Err(); err != nil {
		return err
	}
	metas := make([]meta, 0, n+n/2)
	for i := 0; i < n; i++ {
		metas = append(metas, meta{prog: Program(d.U8()), cooldown: d.U32()})
	}
	stats := Stats{
		RogueKills:       d.U64(),
		RogueSplits:      d.U64(),
		FailedDetections: d.U64(),
	}
	clustered := d.Bool()
	if err := d.Err(); err != nil {
		return err
	}
	if clustered != (o.clusterSrc != nil) {
		return fmt.Errorf("rogue: snapshot clustering (%v) does not match configuration", clustered)
	}
	if clustered {
		var st [4]uint64
		for i := range st {
			st[i] = d.U64()
		}
		if err := d.Err(); err != nil {
			return err
		}
		o.clusterSrc.SetState(st)
	}
	o.meta = metas
	o.stats = stats
	if c, ok := o.inner.(sim.StateCodec); ok {
		return c.DecodeState(d)
	}
	return nil
}

// ClusterSpec is the clustered-infiltration patch: rogues appear within
// Radius of Center instead of at oblivious uniform positions.
type ClusterSpec struct {
	// Center is the patch center.
	Center population.Point
	// Radius is the patch radius (arc half-length on 1-D topologies).
	Radius float64
}

// Config holds the extension's own parameters. Everything else — params,
// communication model, state adversary, seed, initial size, workers — is
// the sim.Config that New takes alongside it.
type Config struct {
	// ReplicateEvery is the rogue replication period R ≥ 1 (the model's
	// rate bound: at most one replication per R rounds per rogue).
	ReplicateEvery int
	// DetectProb is the probability an honest agent recognizes a foreign
	// program on contact (the paper's assumption is 1; lower values model
	// imperfect detection).
	DetectProb float64
	// InitialRogues seeds the system with this many rogue agents.
	InitialRogues int
	// RoguesPerEpoch inserts this many additional rogues at every honest
	// epoch boundary (continuous infiltration).
	RoguesPerEpoch int
	// Cluster, when non-nil, places every rogue insertion — the initial
	// cohort and the per-epoch infiltration — within Cluster.Radius of
	// Cluster.Center under the spatial matcher's geometry, through the
	// population.Positions placement seam: the adversary chooses where its
	// agents appear. Requires a spatial sim.Config.Matcher (match.Space);
	// the patch-attack seeding of experiment A9.
	Cluster *ClusterSpec
}

// Validate checks the extension parameters on their own; New additionally
// requires a spatial matcher when Cluster is set.
func (c Config) Validate() error {
	switch {
	case c.ReplicateEvery < 1:
		return errors.New("rogue: ReplicateEvery must be >= 1")
	case !(c.DetectProb >= 0 && c.DetectProb <= 1):
		return fmt.Errorf("rogue: DetectProb %v outside [0, 1]", c.DetectProb)
	case c.InitialRogues < 0 || c.RoguesPerEpoch < 0:
		return errors.New("rogue: negative rogue counts")
	case c.Cluster != nil && !(c.Cluster.Radius >= 0):
		return fmt.Errorf("rogue: negative cluster radius %v", c.Cluster.Radius)
	}
	return nil
}

// Engine drives the extended system: a thin wrapper over the unified
// sim.Engine with the Overlay installed. All round, epoch, report, census,
// and sizing machinery is the engine's own; this type only adds the
// extension accessors. Not safe for concurrent use by callers.
type Engine struct {
	*sim.Engine
	overlay *Overlay
}

// New builds the extended engine: sc.InitialSize honest agents (default
// sc.Params.N) running sc.Protocol — the paper protocol when nil; the
// popstab facade passes baselines through here too — plus rc.InitialRogues
// rogues. sc.Extended must be unset: the overlay takes that slot.
func New(sc sim.Config, rc Config) (*Engine, error) {
	if err := rc.Validate(); err != nil {
		return nil, err
	}
	if sc.Extended != nil {
		return nil, errors.New("rogue: sim.Config.Extended is the overlay's slot")
	}
	inner := sc.Protocol
	if inner == nil {
		pr, err := protocol.New(sc.Params)
		if err != nil {
			return nil, fmt.Errorf("rogue: %w", err)
		}
		inner = pr
	}
	overlay := &Overlay{
		inner:          inner,
		epochLen:       inner.EpochLen(),
		replicateEvery: uint32(rc.ReplicateEvery),
		detectProb:     rc.DetectProb,
		roguesPerEpoch: rc.RoguesPerEpoch,
	}
	size := sc.InitialSize
	if size == 0 {
		size = sc.Params.N
	}
	if size < 0 {
		return nil, fmt.Errorf("rogue: negative initial size %d", size)
	}
	pop := population.New(size)
	pop.Attach(overlay)
	for i := 0; i < rc.InitialRogues; i++ {
		overlay.InsertRogue(pop)
	}
	sc.Protocol, sc.Extended = nil, overlay
	eng, err := sim.NewFromPopulation(sc, pop)
	if err != nil {
		return nil, fmt.Errorf("rogue: %w", err)
	}
	if rc.Cluster != nil {
		if err := installCluster(sc, *rc.Cluster, overlay); err != nil {
			return nil, err
		}
	}
	return &Engine{Engine: eng, overlay: overlay}, nil
}

// installCluster wires clustered infiltration: a private placement stream
// (domain-separated from the engine's seed, so clustering perturbs no
// engine randomness), re-placement of the initial cohort — which was
// inserted before the matcher bound its position side-array and therefore
// drew oblivious uniform positions — and the patch placer for all future
// InsertRogue calls.
func installCluster(sc sim.Config, spec ClusterSpec, overlay *Overlay) error {
	sp, ok := sc.Matcher.(match.Space)
	if !ok {
		return errors.New("rogue: Cluster requires a spatial Matcher")
	}
	src := prng.New(sc.Seed ^ clusterSeedSalt)
	ps := sp.Positions()
	overlay.positions = ps
	overlay.clusterSrc = src
	overlay.clusterSpec = &spec
	overlay.clusterPlace = func() population.Point {
		return sp.PatchPoint(spec.Center, spec.Radius, src)
	}
	for i := range overlay.meta {
		if overlay.meta[i].prog == Rogue {
			ps.SetAt(i, overlay.clusterPlace())
		}
	}
	return nil
}

// clusterSeedSalt domain-separates the cluster placement stream from the
// engine root stream derived from the same sim.Config.Seed.
const clusterSeedSalt = 0x9d5c_7a13_c0ff_ee01

// Overlay exposes the extension program (tags, cooldowns, stats).
func (e *Engine) Overlay() *Overlay { return e.overlay }

// Stats returns the accumulated extension counters.
func (e *Engine) Stats() Stats { return e.overlay.Stats() }

// Counts reports the honest and rogue populations.
func (e *Engine) Counts() (honest, rogue int) { return e.overlay.Counts() }
