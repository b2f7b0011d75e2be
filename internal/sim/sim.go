// Package sim implements the synchronous round engine of the population
// model: it owns the population, samples the per-round communication
// matching, delivers messages, applies protocol decisions, and gives the
// adversary its budgeted turn.
//
// One round proceeds as (see DESIGN.md §5):
//
//  1. the program's StartRound hook runs, if any (e.g. rogue infiltration);
//  2. the adversary observes all agent memory and stages up to K
//     insertions/deletions, which are applied before the matching is drawn
//     (the adversary never knows the schedule in advance, §2);
//  3. the matcher samples the round's pairing — a uniformly random matching
//     covering at least a γ fraction of agents in the well-mixed model, or a
//     population-state-aware matching such as nearest-neighbor on the torus;
//  4. every agent composes its outgoing message from its pre-round state;
//  5. messages are delivered simultaneously; unmatched agents receive ⊥;
//  6. every agent executes one protocol step, yielding keep/die/split (and,
//     for extended programs, optionally removing its matched neighbor);
//  7. deaths, neighbor-kills and births are applied in one pass; daughters
//     act next round.
//
// The engine is generic over two seams, which is what lets the §1.2
// extensions share one round loop instead of forking it (they used to be
// three separate engines):
//
//   - the communication model is Config.Matcher, a match.Matcher — plain
//     schedulers adapt via match.FromScheduler, and a nil Matcher is the
//     well-mixed match.Uniform{γ}; spatial matchers (match.Torus) attach a
//     population.Positions side-array at Bind time so daughter placement and
//     adversarial insertion stay aligned with the agent states, and the
//     adversary's View reads those positions (Pos, PatchPoint);
//   - the agent program is a Stepper, or an ExtendedStepper for programs
//     that carry per-slot side state and use the neighbor-removal power
//     (internal/rogue's honest/rogue overlay).
//
// The engine is deterministic given its seed: matcher, adversary, and binder
// draw from independent split-off streams, and every protocol coin flip
// comes from a counter-based stream keyed on (seed, global round, agent
// slot), so swapping the adversary never perturbs protocol coin flips
// (paired comparison across experiment arms) and per-agent randomness is
// independent of iteration order. That order-independence is what lets the
// Compose and Step phases shard across a persistent worker pool
// (Config.Workers, internal/pool): simulation output is bit-identical for
// every worker count, including the serial Workers=1 path, for every matcher
// and program. The randomness-free Compose phase overlaps the matching: the
// pool's workers claim compose chunks while the engine goroutine samples
// the matching, then it claims chunks too (pool.Share; the two touch
// disjoint state — DESIGN.md §10). The adversary's turn stays serial —
// sequential by its budget semantics — and so do the kill fold and the
// apply compaction, single passes that sharding did not speed up, and the
// spatial pipeline's bucket, counting-sort scatter, greedy walk and output
// pass; only its candidate phase shards on the engine's pool
// (match/spatial.go, DESIGN.md §12 and §15). Every pool callback the engine
// passes is bound once at construction and every per-part scratch lives in
// the engine, so a steady-state round allocates nothing at Workers 1 and
// only pool.Run's call per multi-part Run otherwise
// (TestSteadyStateRoundAllocs).
// Engines own their pool: Close releases its goroutines (a closed engine
// keeps working, serially), and dropped engines are covered by a runtime
// cleanup.
// See DESIGN.md §5 for the phase structure and §10 for the parallel design.
package sim

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"popstab/internal/adversary"
	"popstab/internal/agent"
	"popstab/internal/match"
	"popstab/internal/params"
	"popstab/internal/pool"
	"popstab/internal/population"
	"popstab/internal/prng"
	"popstab/internal/wire"
)

// Stepper is the per-agent protocol the engine drives. internal/protocol
// implements it for the paper's protocol; internal/baseline implements it
// for the comparison protocols.
//
// Concurrency contract: when the engine runs with Workers > 1, Compose and
// Step are invoked concurrently from multiple goroutines, each agent from
// exactly one goroutine per round, with a barrier between the Compose and
// Step phases. Implementations may freely mutate the *agent.State they are
// handed but must keep any shared mutable state of their own (e.g. event
// counters) race-free; the src passed to Step is a private per-agent stream
// owned by the calling goroutine.
type Stepper interface {
	// EpochLen reports the protocol's epoch length in rounds (1 for
	// epoch-free protocols).
	EpochLen() int
	// Compose encodes the message agent s sends this round.
	Compose(s *agent.State) uint8
	// Decode decodes a received message byte.
	Decode(b uint8) wire.Message
	// Step executes one round for one agent and reports its fate.
	Step(s *agent.State, nbr wire.Message, hasNbr bool, src *prng.Source) population.Action
}

// ExtendedStepper is the indexed generalization of Stepper for programs that
// carry per-slot extension state outside agent.State (a side-array kept
// aligned via population.Tracker) and that may use the paper's §1.2
// agent-removal power. internal/rogue's honest/rogue overlay is the
// canonical implementation.
//
// The Stepper concurrency contract applies unchanged: ComposeAt and StepAt
// run concurrently across shards, each slot from exactly one goroutine per
// round. StepAt may additionally read the *matched neighbor's* extension
// state (slot j); implementations must confine cross-slot writes to the
// returned killNbr channel, which has a unique writer per victim (the
// victim's matched neighbor) and is only read by the serial apply phase.
type ExtendedStepper interface {
	// EpochLen reports the protocol's epoch length in rounds.
	EpochLen() int
	// Decode decodes a received message byte.
	Decode(b uint8) wire.Message
	// ComposeAt encodes the message agent slot i sends this round.
	ComposeAt(i int, s *agent.State) uint8
	// StepAt executes one round for slot i, matched with slot j (j < 0 and
	// hasNbr false when unmatched). Returning killNbr true removes the
	// matched neighbor at the end of the round, overriding the victim's own
	// action (the victim is gone before it can divide).
	StepAt(i, j int, s *agent.State, nbr wire.Message, hasNbr bool, src *prng.Source) (act population.Action, killNbr bool)
}

// RoundStarter is an optional program capability: StartRound runs at the top
// of every round, before the adversary's turn, on the engine's goroutine.
// internal/rogue uses it for continuous infiltration at epoch boundaries.
type RoundStarter interface {
	StartRound(pop *population.Population, round uint64)
}

// Config assembles an engine.
type Config struct {
	// Params is the model parameterization (N, γ, α, epoch shape).
	Params params.Params
	// Protocol is the per-agent program. Exactly one of Protocol and
	// Extended must be set.
	Protocol Stepper
	// Extended is the indexed per-agent program with side state and the
	// neighbor-removal channel (see ExtendedStepper). Exactly one of
	// Protocol and Extended must be set.
	Extended ExtendedStepper
	// Matcher is the communication model: a population-state-aware
	// matcher (e.g. match.Torus), or a plain scheduler adapted by
	// match.FromScheduler. Defaults to match.Uniform{Gamma: Params.Gamma}.
	// Matchers implementing match.Binder are bound to the population at
	// construction.
	Matcher match.Matcher
	// Adversary attacks each round. Defaults to adversary.None.
	Adversary adversary.Adversary
	// K is the adversary's per-round alteration budget.
	K int
	// Seed derives all randomness.
	Seed uint64
	// InitialSize overrides the starting population (default Params.N).
	InitialSize int
	// AdversaryAfterStep moves the adversary's turn to the end of the
	// round, after protocol actions are applied (ablation A3). The default
	// (false) gives the adversary its turn at the start of the round,
	// before the matching is sampled.
	AdversaryAfterStep bool
	// Workers sets the number of goroutines sharding the Compose and Step
	// phases: 0 means runtime.NumCPU(), 1 forces the serial path, and
	// negative values are rejected. Simulation output is bit-identical
	// across all worker counts; Workers is purely a throughput knob.
	Workers int
}

// RoundReport summarizes one completed round.
type RoundReport struct {
	// Round is the global index of the completed round (0-based).
	Round uint64
	// SizeBefore and SizeAfter are the population sizes at the round's
	// start (after the StartRound hook, before the adversary) and end.
	SizeBefore, SizeAfter int
	// Births and Deaths count protocol splits and deaths (consistency
	// deaths and neighbor-kills included).
	Births, Deaths int
	// Kills counts agents removed through the extended program's
	// neighbor-removal channel this round (also included in Deaths).
	Kills int
	// AdvInserted and AdvDeleted count the adversary's alterations.
	AdvInserted, AdvDeleted int
}

// EpochReport aggregates the rounds of one protocol epoch.
type EpochReport struct {
	// Epoch is the 0-based epoch index.
	Epoch int
	// StartSize and EndSize bracket the epoch.
	StartSize, EndSize int
	// MinSize and MaxSize are the extremes seen at round boundaries.
	MinSize, MaxSize int
	// Births, Deaths, Kills, AdvInserted, AdvDeleted are summed over the
	// epoch.
	Births, Deaths, Kills, AdvInserted, AdvDeleted int
}

// Delta reports the net population change over the epoch.
func (e EpochReport) Delta() int { return e.EndSize - e.StartSize }

// Engine drives one simulation. Create with New; not safe for concurrent
// use.
type Engine struct {
	cfg     Config
	pop     *population.Population
	matcher match.Matcher
	// space is the matcher's spatial self-description (nil for non-spatial
	// matchers): the engine threads it into the adversary's View and Budget
	// so positions are adversary-visible state, per the model.
	space match.Space
	adv   adversary.Adversary
	// budget is the adversary's Mutator, Reset at every turn, and
	// spaceDist2 the space's metric as a method value; both are built once
	// so a turn allocates nothing.
	budget     *adversary.Budget
	spaceDist2 func(a, b population.Point) float64
	// pool is the persistent worker pool behind every sharded phase
	// (compose/step and the spatial matching pipeline) and
	// the compose∥match overlap, where its workers claim compose chunks
	// while the engine goroutine samples the matching (pool.Share). Owned
	// by the engine: Close releases it, and a runtime cleanup releases it
	// for engines that are simply dropped (hibernated/reaped sessions).
	pool *pool.Pool
	// composeChunk and sampleMatch are the two sides of the overlap, and
	// stepChunk the step phase's shard (stepRange or stepRangeExtended),
	// bound once at construction so a round allocates no closures.
	composeChunk func(part, lo, hi int)
	sampleMatch  func()
	stepChunk    func(part, lo, hi int)

	// proto and xproto are the two program seams; exactly one is non-nil.
	proto  Stepper
	xproto ExtendedStepper
	// starter is the optional per-round hook of the program.
	starter RoundStarter
	// epochLen caches the program's EpochLen(), read on every round by the
	// epoch/census accounting and the adversary view.
	epochLen int

	// protoKey keys the counter-based per-agent protocol streams: agent
	// slot i of global round r draws from prng stream (protoKey, r, i).
	protoKey uint64
	schedSrc *prng.Source
	advSrc   *prng.Source

	pairing match.Pairing
	msgs    []uint8
	actions []population.Action
	// kill is the extended programs' neighbor-removal mask; nil for plain
	// Steppers. kill[j] has a unique writer per round (j's matched
	// neighbor) and is read only by the serial kill fold.
	kill []bool
	// stepSrcs holds one counter stream per part of the step phase's
	// pool.Run, indexed by part number, which each part reseeds for every
	// agent it steps. As a local of the step range the stream would escape
	// to the heap, once per part per round.
	stepSrcs []stepSource

	round uint64

	// stats accumulates the per-phase cost counters (roundstats.go).
	// composeLeft counts the agents still to compose this round; the
	// chunk that takes it to zero stamps composeEnd, which RunRound reads
	// after Share's barrier. allocSamples and allocBase back the per-round
	// heap-allocation deltas.
	stats        RoundStats
	composeLeft  atomic.Int64
	composeEnd   time.Time
	allocSamples [2]metrics.Sample
	allocBase    [2]uint64
}

// NewFromPopulation builds an engine over an existing population, taking
// ownership of it (side-array trackers already attached to it are
// preserved, and the matcher binds to it). Experiments and extension
// constructors use it to start from prepared states; cfg.InitialSize is
// ignored.
func NewFromPopulation(cfg Config, pop *population.Population) (*Engine, error) {
	if pop == nil {
		return nil, errors.New("sim: nil population")
	}
	return buildEngine(cfg, pop)
}

// New validates cfg and builds an engine with a fresh population of
// InitialSize (default N) zero-state agents.
func New(cfg Config) (*Engine, error) {
	return buildEngine(cfg, nil)
}

// buildEngine validates cfg and assembles the engine over pop (freshly built
// when nil). Randomness streams are split from the root in a fixed order —
// protocol key, scheduler, adversary, binder — so adding components never
// perturbs earlier streams.
func buildEngine(cfg Config, pop *population.Population) (*Engine, error) {
	if (cfg.Protocol == nil) == (cfg.Extended == nil) {
		return nil, errors.New("sim: exactly one of Config.Protocol and Config.Extended is required")
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if cfg.K < 0 {
		return nil, fmt.Errorf("sim: negative adversary budget %d", cfg.K)
	}
	matcher := cfg.Matcher
	if matcher == nil {
		u, err := match.NewUniform(cfg.Params.Gamma)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		matcher = match.FromScheduler(u)
	}
	if cfg.Adversary == nil {
		cfg.Adversary = adversary.None{}
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("sim: negative worker count %d", cfg.Workers)
	}
	workers := cfg.Workers
	if workers == 0 {
		workers = runtime.NumCPU()
	}
	if pop == nil {
		size := cfg.InitialSize
		if size == 0 {
			size = cfg.Params.N
		}
		if size < 0 {
			return nil, fmt.Errorf("sim: negative initial size %d", size)
		}
		pop = population.New(size)
	}

	e := &Engine{
		cfg:     cfg,
		pop:     pop,
		matcher: matcher,
		adv:     cfg.Adversary,
		proto:   cfg.Protocol,
		xproto:  cfg.Extended,
	}
	if e.xproto != nil {
		e.epochLen = e.xproto.EpochLen()
		e.starter, _ = e.xproto.(RoundStarter)
	} else {
		e.epochLen = e.proto.EpochLen()
		e.starter, _ = e.proto.(RoundStarter)
	}
	if e.epochLen < 1 {
		return nil, fmt.Errorf("sim: program epoch length %d < 1", e.epochLen)
	}

	// The persistent worker pool behind every sharded phase: the engine's
	// compose and step, and matchers that shard their matching phase. The
	// cleanup releases the pool's parked goroutines when an engine is
	// dropped without Close — internal/serve hibernates and reaps sessions
	// by unreferencing them.
	e.pool = pool.New(workers)
	if ps, ok := matcher.(match.PoolSetter); ok {
		ps.SetPool(e.pool)
	}
	runtime.AddCleanup(e, func(p *pool.Pool) { p.Close() }, e.pool)
	e.composeChunk = e.composeRange
	e.stepChunk = e.stepRange
	if e.xproto != nil {
		e.stepChunk = e.stepRangeExtended
	}
	e.sampleMatch = func() {
		t := time.Now()
		e.matcher.SampleMatch(e.pop, e.schedSrc, &e.pairing)
		e.stats.MatchNS += sinceNS(t)
	}

	root := prng.New(cfg.Seed)
	e.protoKey = root.Split().Uint64()
	e.schedSrc = root.Split()
	e.advSrc = root.Split()
	bindSrc := root.Split()
	if b, ok := matcher.(match.Binder); ok {
		b.Bind(e.pop, bindSrc)
	}
	// Spatial matchers expose their positions and metric to the adversary
	// seam; strategies that act on the communication model itself
	// (adversary.RewireAdversary) receive the bound matcher. Both are pure
	// wiring — no randomness is consumed, so position-blind configurations
	// are bit-identical to the pre-seam engine.
	e.space, _ = matcher.(match.Space)
	if e.space != nil {
		e.spaceDist2 = e.space.Dist2
	}
	if e.cfg.K > 0 {
		e.budget = adversary.NewBudget(e.cfg.K, 0, e.epochLen)
	}
	if mb, ok := e.adv.(adversary.MatcherBinder); ok {
		mb.BindMatcher(matcher)
	}
	e.initAllocSamples()
	return e, nil
}

// MustNew is New for known-valid configurations; it panics on error.
func MustNew(cfg Config) *Engine {
	e, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// Close releases the engine's parked worker-pool goroutines. The engine
// stays usable afterwards — a closed pool runs every sharded phase inline —
// so Close is a resource release, not a shutdown. Idempotent; engines that
// are dropped without Close are covered by a runtime cleanup, but callers
// that hold sessions for a long time (internal/serve) close eagerly so the
// goroutine count tracks the live session count, not the garbage collector.
func (e *Engine) Close() { e.pool.Close() }

// Population exposes the live population (owned by the engine).
func (e *Engine) Population() *population.Population { return e.pop }

// Size reports the current population size.
func (e *Engine) Size() int { return e.pop.Len() }

// GlobalRound reports the number of completed rounds.
func (e *Engine) GlobalRound() uint64 { return e.round }

// EpochLen reports the program's epoch length in rounds, cached at
// construction.
func (e *Engine) EpochLen() int { return e.epochLen }

// EpochIndex reports the current epoch number.
func (e *Engine) EpochIndex() int {
	return int(e.round / uint64(e.epochLen))
}

// Params returns the engine's parameterization.
func (e *Engine) Params() params.Params { return e.cfg.Params }

// Matcher exposes the engine's communication model.
func (e *Engine) Matcher() match.Matcher { return e.matcher }

// Census takes a population census using the protocol's epoch geometry.
func (e *Engine) Census() population.Census {
	return e.pop.TakeCensus(e.epochLen-1, e.cfg.Params.HalfLogN)
}

// adversaryTurn gives the adversary its budgeted turn: it resets the
// engine's Budget for the round (bound to the matcher's positions and
// metric on a spatial topology), lets the adversary stage up to K
// alterations into it, and applies them — deletions first, then
// insertions, with insertions staged at an explicit position (InsertAt)
// routed through the Positions placement queue so the agent appears exactly
// where the adversary chose. Everything here runs serially, so
// adversary-chosen placement is deterministic and worker-count-invariant
// like the rest of the turn.
func (e *Engine) adversaryTurn(rep *RoundReport) {
	if e.cfg.K <= 0 {
		return
	}
	budget := e.budget
	budget.Reset(e.cfg.K, e.pop.Len(), e.epochLen)
	if e.space != nil {
		budget.BindSpace(e.space.Positions().Slice(), e.spaceDist2)
	}
	e.adv.Act(engineView{e}, budget, e.advSrc)
	rep.AdvDeleted += e.pop.DeleteDescending(budget.Deletions())
	for _, ins := range budget.Inserts() {
		if ins.Placed && e.space != nil {
			e.space.Positions().QueuePlacement(ins.At)
		}
		e.pop.Insert(ins.State)
	}
	rep.AdvInserted += len(budget.Inserts())
}

// RunRound executes one full round and reports it.
func (e *Engine) RunRound() RoundReport {
	// 0. Program hook (e.g. rogue infiltration at epoch boundaries).
	if e.starter != nil {
		e.starter.StartRound(e.pop, e.round)
	}

	rep := RoundReport{Round: e.round, SizeBefore: e.pop.Len()}
	e.accumAllocs(false)

	// 1. Adversary turn (default timing: before the matching is sampled).
	if !e.cfg.AdversaryAfterStep {
		t := time.Now()
		e.adversaryTurn(&rep)
		e.stats.AdversaryNS += sinceNS(t)
	}

	n := e.pop.Len()
	e.ensureScratch(n)

	// 2–4. Matching and compose, overlapped: the pool's workers claim
	// compose chunks while this goroutine samples the matching, then it
	// claims the rest. The two phases are provably independent: compose
	// reads only pre-round agent state and consumes no randomness (protocol
	// coins are drawn in Step), while SampleMatch reads only the population
	// size/positions and writes only the pairing and the matcher's own
	// scratch. On a pool of one compose runs inline first — same reads, same
	// writes, same (absence of) randomness, so output is bit-identical
	// either way (DESIGN.md §10). ComposeNS runs until the last chunk is
	// done: compose's own time inline, its span in the overlap.
	e.composeLeft.Store(int64(n))
	tc := time.Now()
	e.pool.Share(e.sampleMatch, n, minShardAgents, e.composeChunk)
	e.stats.ComposeNS += uint64(e.composeEnd.Sub(tc).Nanoseconds())

	// 5. Deliver and step — sharded across the worker pool when the
	// population is large enough to pay for it.
	ts := time.Now()
	e.pool.Run(n, minShardAgents, e.stepChunk)
	e.stats.StepNS += sinceNS(ts)

	// 6. Apply fates. Neighbor-kills override the victim's own action (the
	// victim is removed before it can divide): the kill mask folds into the
	// action array, then one serial compaction drops the dead and appends
	// the daughters.
	if e.xproto != nil {
		tk := time.Now()
		for j, killed := range e.kill {
			if killed {
				e.actions[j] = population.ActDie
				rep.Kills++
			}
		}
		e.stats.KillFoldNS += sinceNS(tk)
	}
	ta := time.Now()
	rep.Births, rep.Deaths = e.pop.Apply(e.actions)
	e.stats.ApplyNS += sinceNS(ta)

	// Ablation timing: adversary acts after the protocol step.
	if e.cfg.AdversaryAfterStep {
		t := time.Now()
		e.adversaryTurn(&rep)
		e.stats.AdversaryNS += sinceNS(t)
	}

	rep.SizeAfter = e.pop.Len()
	e.round++
	e.stats.Rounds++
	e.stats.Births += uint64(rep.Births)
	e.stats.Deaths += uint64(rep.Deaths)
	e.stats.NetGrowth += int64(rep.SizeAfter - rep.SizeBefore)
	e.accumAllocs(true)
	return rep
}

// stepSource is one step part's counter stream, padded so that no two
// parts' streams share a cache line: both rewrite theirs for every agent.
type stepSource struct {
	prng.Source
	_ [64]byte
}

// ensureScratch sizes the msgs/actions (and, for extended programs, kill)
// buffers for n agents, growing with 1.5× slack so a steadily growing
// population does not reallocate on every round, and keeps a step stream
// for every part the step phase splits n agents into.
func (e *Engine) ensureScratch(n int) {
	if w := e.pool.Shards(n, minShardAgents); len(e.stepSrcs) < w {
		e.stepSrcs = make([]stepSource, w)
	}
	if cap(e.msgs) < n {
		c := n + n/2
		e.msgs = make([]uint8, c)
		e.actions = make([]population.Action, c)
		if e.xproto != nil {
			e.kill = make([]bool, c)
		}
	}
	e.msgs = e.msgs[:n]
	e.actions = e.actions[:n]
	if e.xproto != nil {
		e.kill = e.kill[:n]
	}
}

// minShardAgents bounds how finely the per-agent phases shard: below ~1k
// agents per worker the pool wake-up and barrier overhead exceeds the step
// work, so the effective worker count is capped at n/minShardAgents. Output
// is worker-count-invariant, so the cap is purely a scheduling heuristic.
const minShardAgents = 1024

// composeRange composes the outgoing messages of agents [lo, hi) from
// pre-round state (and, for extended programs, clears their kill-mask
// entries — each slot has exactly one owner, so the clear is race-free and
// worker-count-invariant). Compose consumes no randomness, so the chunks
// may run in any order on any goroutine; the agent array is walked
// contiguously via the bulk States accessor rather than per-index Ref calls.
func (e *Engine) composeRange(_, lo, hi int) {
	states := e.pop.States()
	if e.xproto != nil {
		for i := lo; i < hi; i++ {
			e.kill[i] = false
			e.msgs[i] = e.xproto.ComposeAt(i, &states[i])
		}
	} else {
		for i := lo; i < hi; i++ {
			e.msgs[i] = e.proto.Compose(&states[i])
		}
	}
	if e.composeLeft.Add(int64(lo-hi)) == 0 {
		e.composeEnd = time.Now()
	}
}

// stepRange delivers the neighbor message of every agent in [lo, hi) and
// executes its protocol step; RunRound shards it over the worker pool. Each
// agent's coin flips come from the counter-based stream (protoKey, round,
// slot) — reseeded per agent in the part's own source — so the result is
// bit-identical whether the parts run serially or concurrently.
func (e *Engine) stepRange(part, lo, hi int) {
	states := e.pop.States()
	src := &e.stepSrcs[part].Source
	for i := lo; i < hi; i++ {
		src.SeedCounter(e.protoKey, e.round, uint64(i))
		j := e.pairing.Nbr[i]
		var msg wire.Message
		hasNbr := j != match.Unmatched
		if hasNbr {
			msg = e.proto.Decode(e.msgs[j])
		}
		e.actions[i] = e.proto.Step(&states[i], msg, hasNbr, src)
	}
}

// stepRangeExtended is stepRange for extended programs, which additionally
// route neighbor-kills into the mask (unique writer per victim: its matched
// neighbor).
func (e *Engine) stepRangeExtended(part, lo, hi int) {
	states := e.pop.States()
	src := &e.stepSrcs[part].Source
	for i := lo; i < hi; i++ {
		src.SeedCounter(e.protoKey, e.round, uint64(i))
		j := e.pairing.Nbr[i]
		var msg wire.Message
		hasNbr := j != match.Unmatched
		if hasNbr {
			msg = e.xproto.Decode(e.msgs[j])
		}
		act, killNbr := e.xproto.StepAt(i, int(j), &states[i], msg, hasNbr, src)
		e.actions[i] = act
		if killNbr && hasNbr {
			e.kill[j] = true
		}
	}
}

// RunRounds executes n rounds, returning the last report.
func (e *Engine) RunRounds(n int) RoundReport {
	var rep RoundReport
	for i := 0; i < n; i++ {
		rep = e.RunRound()
	}
	return rep
}

// RunEpoch executes rounds until the next epoch boundary and aggregates
// them. At a boundary it runs a full epoch.
func (e *Engine) RunEpoch() EpochReport {
	t := uint64(e.epochLen)
	rep := EpochReport{
		Epoch:     int(e.round / t),
		StartSize: e.pop.Len(),
		MinSize:   e.pop.Len(),
		MaxSize:   e.pop.Len(),
	}
	for {
		r := e.RunRound()
		rep.Births += r.Births
		rep.Deaths += r.Deaths
		rep.Kills += r.Kills
		rep.AdvInserted += r.AdvInserted
		rep.AdvDeleted += r.AdvDeleted
		if r.SizeAfter < rep.MinSize {
			rep.MinSize = r.SizeAfter
		}
		if r.SizeAfter > rep.MaxSize {
			rep.MaxSize = r.SizeAfter
		}
		if e.round%t == 0 {
			rep.EndSize = r.SizeAfter
			return rep
		}
	}
}

// RunEpochs executes n epochs and returns their reports.
func (e *Engine) RunEpochs(n int) []EpochReport {
	out := make([]EpochReport, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, e.RunEpoch())
	}
	return out
}

// ForceResize displaces the population to exactly n agents (padding with
// fresh agents carrying the correct round counter). Experiment machinery
// for Lemmas 8 and 9; not part of the model.
func (e *Engine) ForceResize(n int) {
	round := uint32(e.round % uint64(e.epochLen))
	e.pop.ForceResize(n, round)
}

// engineView adapts the engine to adversary.View.
type engineView struct{ e *Engine }

var _ adversary.View = engineView{}

func (v engineView) Len() int                { return v.e.pop.Len() }
func (v engineView) State(i int) agent.State { return v.e.pop.State(i) }
func (v engineView) GlobalRound() uint64     { return v.e.round }
func (v engineView) EpochRound() int {
	return int(v.e.round % uint64(v.e.epochLen))
}
func (v engineView) Params() params.Params { return v.e.cfg.Params }
func (v engineView) Find(dst []int, limit int, pred func(agent.State) bool) []int {
	return v.e.pop.FindIf(dst, limit, pred)
}

// The spatial View methods surface the matcher's positions and geometry; on
// a non-spatial matcher Pos is the zero Point and PatchPoint the center.

func (v engineView) HasSpace() bool { return v.e.space != nil }

func (v engineView) Pos(i int) population.Point {
	if v.e.space == nil {
		return population.Point{}
	}
	return v.e.space.Positions().At(i)
}

func (v engineView) PatchPoint(center population.Point, r float64, src *prng.Source) population.Point {
	if v.e.space == nil {
		return center
	}
	return v.e.space.PatchPoint(center, r, src)
}
